package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (raw []byte, spec benchmarkJSON) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return raw, spec
}

// The smoke test runs all five workloads and the traced run once at a
// twentieth of the published size. Every operation is checked against its
// reference inside the benchmark, so zero failed operations means the
// session and the daemon returned exactly their one-shot references.
func TestSmoke(t *testing.T) {
	logw = io.Discard
	defer func() { logw = os.Stderr }()
	_, spec := readBenchmarkJSON(t)

	tr := newTracer()
	o := options{seed: 1, seconds: 0.1, scale: 0.05, dataDir: t.TempDir()}
	results, err := runSet(o, workloads, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(spec.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(results), len(spec.Workloads))
	}
	for i, r := range results {
		if r.Workload != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.Workload, spec.Workloads[i].Name)
		}
		if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed (correct=%v)", r.Workload, r.Failed, r.Attempted, r.Correct)
		}
		emitted := map[string]float64{}
		for _, m := range append(r.EndToEnd, r.Layers...) {
			emitted[m.Name] = m.Value
		}
		for _, m := range spec.EndToEnd {
			if v, ok := emitted[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v (emitted %v)", r.Workload, m.Name, v, ok)
			}
		}
		for _, m := range spec.PerLayer {
			if v, ok := emitted[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (emitted %v)", r.Workload, m.Name, v, ok)
			}
		}
	}
	// The span file holds a well-formed tree (runSet validated it) with
	// spans from every instrumented layer.
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range tr.spans {
		layers[s.Layer] = true
	}
	for _, l := range []string{"bench", "core", "align", "match", "embed", "fd", "wal", "server", "table", "intern", "em", "metrics"} {
		if !layers[l] {
			t.Errorf("no span from layer %s", l)
		}
	}
}

// BENCHMARK.json is generated by -describe; the two must not drift.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, _ := readBenchmarkJSON(t)
	var buf bytes.Buffer
	if writeJSON(&buf, describe(), true) != 0 {
		t.Fatal("describe failed")
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from `go run . -describe`; regenerate it")
	}
}

// The quality column is pinned at the published size: a matcher change
// that moves macro-F1 on Auto-Join by a thousandth fails here.
func TestAutojoinQualityPinned(t *testing.T) {
	for shape, want := range map[int64]float64{42: 0.820501, 7: 0.834849} {
		inst, err := newAutojoin(config{seed: 1, shape: shape, scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.check() // set-up ran the reference operation
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.001 {
			t.Errorf("shape %d: quality_f1 = %.6f, pinned %.6f", shape, got, want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Layer: "match", Start: 10e9, End: 60e9},
		// Two concurrent embed callers overlapping by 10 s: they cover 30 s
		// of the match span, not 40.
		{ID: 3, Parent: 2, Layer: "embed", Start: 10e9, End: 30e9},
		{ID: 4, Parent: 2, Layer: "embed", Start: 20e9, End: 40e9},
	}
	st := analyse(spans)
	if st.self["match"] != 20 || st.busy["embed"] != 40 || st.root != 50 || st.count["embed"] != 2 {
		t.Errorf("self match %v, busy embed %v, root %v, embed spans %d", st.self["match"], st.busy["embed"], st.root, st.count["embed"])
	}
}

func TestValidateRejectsEscapingChild(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Op: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Start: 5, End: 11},
	}
	if tr.validate() == nil {
		t.Error("a child ending after its parent was accepted")
	}
	tr.spans[1].End = 10
	tr.spans[1].Op = 2
	if tr.validate() == nil {
		t.Error("a child in another operation was accepted")
	}
}
