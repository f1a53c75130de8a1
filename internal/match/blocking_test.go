package match_test

import (
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// TestBlockedEdgesSubsetOfDense: every edge the blocked path keeps is an
// edge of the dense path, at the same cost — blocking only drops pairs. On
// the Auto-Join columns it drops some (the log reports the share kept), so
// the two paths are not interchangeable: a blocked round can match fewer
// values than a dense one.
func TestBlockedEdgesSubsetOfDense(t *testing.T) {
	sets := datagen.AutoJoin(datagen.AutoJoinConfig{Seed: 1, Sets: 8, ValuesPerColumn: 60})
	for _, emb := range []embed.Embedder{embed.NewFastText(), embed.NewMistral()} {
		m := &match.Matcher{Emb: emb}
		var kept, all int
		for _, set := range sets {
			reps, values := set.Columns[0].Values, set.Columns[1].Values
			blocked, dense := m.RoundEdges(reps, values, match.DefaultTheta)
			cost := make(map[[2]int]float64, len(dense))
			for _, e := range dense {
				cost[[2]int{e.A, e.B}] = e.Cost
			}
			seen := make(map[[2]int]bool, len(blocked))
			for _, e := range blocked {
				k := [2]int{e.A, e.B}
				if c, ok := cost[k]; !ok || c != e.Cost || seen[k] {
					t.Fatalf("%s %s: blocked edge %+v is not a dense edge once (dense cost %v, present %v, repeated %v)",
						emb.Name(), set.Name, e, c, ok, seen[k])
				}
				seen[k] = true
			}
			kept, all = kept+len(blocked), all+len(dense)
		}
		if all == 0 {
			t.Fatalf("%s: no dense edges under θ; the fixture tests nothing", emb.Name())
		}
		t.Logf("%s: blocking kept %d of %d dense edges (%.1f %%)", emb.Name(), kept, all, 100*float64(kept)/float64(all))
		if kept == all {
			t.Errorf("%s: blocking kept every dense edge; the package doc says it can drop some", emb.Name())
		}
	}
}
