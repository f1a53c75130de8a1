package fuzzyfd

import "testing"

// memoryModelPad is how many all-null columns TestMemoryModel adds to each
// IMDB table for its wide schema: 6 × 10 more integrated columns.
const memoryModelPad = 10

// TestMemoryModel: the memory budget's linear model (FDStats.MemoryBytes,
// what WithMemoryBudget compares against its limit) lands within 25 % of
// the heap an equi IMDB session actually keeps live, at both sizes the
// session benchmark records and at two schema widths — the IMDB schema and
// the same tables padded with null columns — so a budget fires near the
// bytes it names whether the per-tuple or the per-column cost dominates.
func TestMemoryModel(t *testing.T) {
	for _, pad := range []int{0, memoryModelPad} {
		for _, n := range sessionHeapTuples {
			h, err := sessionLiveHeap(n, pad)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d input tuples, %d pad columns per table: live heap %d B (%.0f B per input tuple), model %d B (%.2fx)",
				n, pad, h.LiveBytes, h.PerTuple, h.ModelBytes, h.ModelOverLive)
			if h.ModelOverLive < 0.75 || h.ModelOverLive > 1.25 {
				t.Errorf("%d input tuples, %d pad columns per table: the memory model estimates %d B for a live heap of %d B (%.2fx, want within 25 %%)",
					n, pad, h.ModelBytes, h.LiveBytes, h.ModelOverLive)
			}
		}
	}
}
