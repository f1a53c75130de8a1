package match_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// perPair hides the embedder scorer's vectors behind the plain Scorer
// interface, so the matcher falls back to one Distance call per pair: the
// reference arithmetic the vector paths must reproduce bit for bit.
type perPair struct{ match.Scorer }

// sameClustering reports the first difference between two clusterings,
// comparing every Member.Dist by its bits.
func sameClustering(got, want []match.Cluster) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d clusters, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Rep != w.Rep || len(g.Members) != len(w.Members) {
			return fmt.Errorf("cluster %d: rep %q with %d members, want %q with %d", i, g.Rep, len(g.Members), w.Rep, len(w.Members))
		}
		for k := range w.Members {
			gm, wm := g.Members[k], w.Members[k]
			if gm.Col != wm.Col || gm.Value != wm.Value || math.Float64bits(gm.Dist) != math.Float64bits(wm.Dist) {
				return fmt.Errorf("cluster %d member %d: %+v, want %+v", i, k, gm, wm)
			}
		}
	}
	return nil
}

func TestVectorPathsEqualPerPairDistance(t *testing.T) {
	type fixture struct {
		name string
		sets [][]match.Column
	}
	var autojoin [][]match.Column
	for _, s := range datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42, ValuesPerColumn: 60}) {
		autojoin = append(autojoin, s.Columns)
	}
	// Every tier on Auto-Join; the title ids, one giant sparse component,
	// under the paper's tier.
	fixtures := []fixture{{"autojoin-42", autojoin}, {"imdb-ids", [][]match.Column{imdbIDColumns(2000)}}}

	for _, name := range embed.ModelNames() {
		for _, fx := range fixtures {
			if fx.name == "imdb-ids" && name != embed.Mistral {
				continue
			}
			for _, m := range []struct {
				name string
				mode match.Mode
			}{{"dense", match.ModeDense}, {"sparse", match.ModeSparse}, {"greedy", match.ModeGreedy}} {
				mode := m.mode
				t.Run(name+"/"+fx.name+"/"+m.name, func(t *testing.T) {
					emb, err := embed.New(name)
					if err != nil {
						t.Fatal(err)
					}
					vec := &match.Matcher{Emb: emb, Opts: match.Options{Mode: mode}}
					ref := &match.Matcher{Scorer: perPair{match.EmbedderScorer(emb)}, Opts: match.Options{Mode: mode}}
					for i, cols := range fx.sets {
						got, gotStats, err := vec.MatchWithStats(context.Background(), cols)
						if err != nil {
							t.Fatal(err)
						}
						want, wantStats, err := ref.MatchWithStats(context.Background(), cols)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameClustering(got, want); err != nil {
							t.Fatalf("set %d: %v", i, err)
						}
						if gotStats != wantStats {
							t.Fatalf("set %d: stats %+v, want %+v", i, gotStats, wantStats)
						}
					}
				})
			}
		}
	}
}

// The auto-tuner scores every (representative, value) pair of a round; with
// a vector scorer it must pick the thresholds the per-pair path picks.
func TestAutoTunerVectorPathEqualsPerPair(t *testing.T) {
	emb := embed.NewMistral()
	m := &match.Matcher{Emb: emb}
	for i, s := range datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 42, Sets: 8, ValuesPerColumn: 60}) {
		got, err := m.MatchAutoTuned(s.Columns, &match.AutoTuner{Scorer: match.EmbedderScorer(emb)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.MatchAutoTuned(s.Columns, &match.AutoTuner{Scorer: perPair{match.EmbedderScorer(emb)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameClustering(got, want); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
}
