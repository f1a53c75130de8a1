package match

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fuzzyfd/internal/embed"
)

// A memo warmed by earlier calls — column prefixes, overlapping and
// reordered sets, the whole set under another θ, across sweeps — must give
// the clusters and Summarize of a fresh call, on either candidate path and
// under the auto-tuner. Rounds must actually replay, and not every one of
// them.
func TestMemoReplayEqualsFreshMatch(t *testing.T) {
	vocab := []string{
		"Berlin", "Toronto", "Barcelona", "New Delhi", "Boston", "Madrid",
		"Paris", "Lisbon", "Vienna", "Prague", "Warsaw", "Athens",
	}
	emb := embed.NewMistral()
	type variant struct {
		name  string
		match func(m *Matcher, cols []Column) ([]Cluster, Stats, error)
	}
	variants := []variant{
		{"dense", func(m *Matcher, cols []Column) ([]Cluster, Stats, error) {
			return m.Pin(Dense).Match(context.Background(), cols)
		}},
		{"sparse", func(m *Matcher, cols []Column) ([]Cluster, Stats, error) {
			return m.Pin(Sparse).Match(context.Background(), cols)
		}},
		{"autotuned", func(m *Matcher, cols []Column) ([]Cluster, Stats, error) {
			clusters, err := m.MatchAutoTuned(cols, &AutoTuner{})
			return clusters, Summarize(clusters), err
		}},
	}
	for _, v := range variants {
		rounds, replayed := 0, 0
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			mkCol := func() Column {
				var cells []string
				for n := 2 + r.Intn(7); n > 0; n-- {
					s := vocab[r.Intn(len(vocab))]
					switch r.Intn(4) {
					case 0: // double a letter
						i := r.Intn(len(s))
						s = s[:i] + s[i:i+1] + s[i:]
					case 1:
						s = strings.ToLower(s)
					}
					cells = append(cells, s)
				}
				return NewColumn("c", cells)
			}
			cols := make([]Column, 3+r.Intn(3))
			for k := range cols {
				cols[k] = mkCol()
			}

			memo := NewMemo()
			warm := [][]Column{cols[:2], cols[1:], {cols[0], cols[2], cols[1]}, nil, cols[:3], cols[:len(cols)-1], cols, nil}
			for i, set := range warm {
				if set == nil {
					memo.Sweep()
					continue
				}
				m := &Matcher{Emb: emb, Memo: memo}
				if i == len(warm)-2 {
					m.Opts.Theta = 0.95
				}
				if _, _, err := v.match(m, set); err != nil {
					t.Log(err)
					return false
				}
			}
			got, gotStats, err := v.match(&Matcher{Emb: emb, Memo: memo}, cols)
			if err != nil {
				t.Log(err)
				return false
			}
			want, _, err := v.match(&Matcher{Emb: emb}, cols)
			if err != nil {
				t.Log(err)
				return false
			}
			rounds += gotStats.Rounds
			replayed += gotStats.RoundsReplayed
			if !reflect.DeepEqual(got, want) || Summarize(got) != Summarize(want) {
				t.Logf("%s seed %d: clusters after a warmed memo differ from a fresh call's", v.name, seed)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
		if v.name == "autotuned" {
			continue // MatchAutoTuned reports no Stats
		}
		if replayed == 0 || replayed == rounds {
			t.Errorf("%s: %d of %d final rounds replayed, want some but not all", v.name, replayed, rounds)
		}
	}
}

// A call without a memo, and a memo's first call, replay nothing.
func TestFreshMemoReplaysNothing(t *testing.T) {
	cols := []Column{
		NewColumn("a", []string{"Berlin", "Toronto"}),
		NewColumn("b", []string{"Berlinn", "Toronto"}),
		NewColumn("c", []string{"berlin", "Boston"}),
	}
	for _, m := range []*Matcher{{Emb: embed.NewMistral()}, {Emb: embed.NewMistral(), Memo: NewMemo()}} {
		_, stats, err := m.Match(context.Background(), cols)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 2 || stats.RoundsReplayed != 0 {
			t.Errorf("%d rounds, %d replayed; want 2, 0", stats.Rounds, stats.RoundsReplayed)
		}
	}
}

// Round keys must be injective on the round's inputs: inputs that differ
// only in string boundaries, in which side a string is on, in θ or in the
// dense limit must not collide. Hashing allocates nothing per string.
func TestRoundKeyInjective(t *testing.T) {
	m := NewMemo()
	key := func(reps, values []string, theta float64, limit int) roundKey {
		return m.roundKey(reps, values, theta, limit)
	}
	a := key([]string{"ab", "c"}, []string{"x"}, 0.7, DefaultDenseLimit)
	for name, other := range map[string]roundKey{
		"boundary":    key([]string{"a", "bc"}, []string{"x"}, 0.7, DefaultDenseLimit),
		"side":        key([]string{"ab"}, []string{"c", "x"}, 0.7, DefaultDenseLimit),
		"theta":       key([]string{"ab", "c"}, []string{"x"}, 0.6, DefaultDenseLimit),
		"dense limit": key([]string{"ab", "c"}, []string{"x"}, 0.7, int(Sparse)),
	} {
		if other == a {
			t.Errorf("round keys differing in %s collide", name)
		}
	}
	if a != key([]string{"ab", "c"}, []string{"x"}, 0.7, DefaultDenseLimit) {
		t.Error("equal rounds produce different keys")
	}

	long := make([]string, 2000)
	for i := range long {
		long[i] = strings.Repeat("v", i%700)
	}
	if allocs := testing.AllocsPerRun(5, func() { key(long, long, 0.7, DefaultDenseLimit) }); allocs > 1 {
		t.Errorf("hashing a round of %d strings made %.0f allocations, want at most 1", 2*len(long), allocs)
	}
}
