// Command bench is the repository's benchmark: five workloads over the
// whole system, the same six end-to-end metrics on each, and a traced run
// that splits an operation's time and work by layer. README.md in this
// directory explains the workloads, the metrics and how they interact;
// BENCHMARK.json at the repository root is the contract a driver runs it by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// logw receives diagnostics (failed operations, progress); results go to
// the writer run is given.
var logw io.Writer = os.Stderr

const (
	procs      = 2 // GOMAXPROCS, pinned so the numbers do not depend on the host
	rounds     = 4 // timed slices per workload, interleaved across workloads
	setupReps  = 5 // set-ups per run; setup_s is their median
	tracePairs = 5 // untraced/traced operation pairs a traced run makes at least
	traceLimit = 1.10
	// shapeSeed fixes what an operation's cost and quality depend on; see
	// config in workloads.go.
	shapeSeed = 42
)

// bounds is how much worse, as a share of the previous median, each
// end-to-end metric may get before a change counts as a regression.
// README.md records the same-code spreads and drifts they were set from.
var bounds = map[string]float64{
	"op_s_p50":        0.20,
	"tuples_per_s":    0.20,
	"cpu_s_per_op":    0.20,
	"alloc_mb_per_op": 0.05,
	"quality_f1":      0.0012, // 0.001 absolute at Auto-Join's 0.82
	"setup_s":         0.25,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	spans    string
	scale    float64
	dataDir  string
	aa       bool
	asJSON   bool
	describe bool
}

// result is what one workload reported in one set of runs.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	Layers    []metric `json:"per_layer,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five, interleaved)")
	fs.Int64Var(&o.seed, "seed", 42, "seed of a run's inputs: fresh join keys and row, value and set order over the shape")
	fs.Float64Var(&o.seconds, "seconds", 20, "timed window per workload")
	fs.StringVar(&o.trace, "trace", "", "0: end-to-end metrics only; 1: per-layer metrics from traced operations only; default both")
	fs.StringVar(&o.spans, "spans", "", "write the traced operations' spans to this file as JSON Lines")
	fs.Float64Var(&o.scale, "scale", 1, "input size multiplier (1 is the published shape)")
	fs.StringVar(&o.dataDir, "data", ".bench_build/data", "parent directory of the durable workload's data")
	fs.BoolVar(&o.aa, "aa", false, "run the full set twice and fail if the two disagree beyond the bounds")
	fs.BoolVar(&o.asJSON, "json", false, "print the full report as JSON")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.describe {
		return writeJSON(out, describe(), true)
	}
	order := workloads
	if o.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
		if i < 0 {
			fmt.Fprintf(logw, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		order = workloads[i : i+1]
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		fmt.Fprintf(logw, "bench: -trace takes 0 or 1, not %q\n", o.trace)
		return 2
	}
	runtime.GOMAXPROCS(procs)

	tr := newTracer()
	results, err := runSet(o, order, tr)
	if err != nil {
		fmt.Fprintf(logw, "bench: %v\n", err)
		return 1
	}
	ok := allCorrect(results) && traceCheap(results)
	if o.aa {
		again, err := runSet(o, reversed(order), tr)
		if err != nil {
			fmt.Fprintf(logw, "bench: %v\n", err)
			return 1
		}
		ok = compareSets(out, results, again) && ok && allCorrect(again) && traceCheap(again)
	}
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			fmt.Fprintf(logw, "bench: %v\n", err)
			return 1
		}
	}
	if o.asJSON {
		writeJSON(out, results, true)
	} else {
		printReport(out, o, results)
	}
	if o.workload != "" && o.trace != "" {
		// The driver's contract: the last line is one workload's result.
		writeJSON(out, driverLine(results[0], o.trace), false)
	}
	if !ok {
		return 1
	}
	return 0
}

func reversed(w []workload) []workload {
	out := slices.Clone(w)
	slices.Reverse(out)
	return out
}

func allCorrect(results []result) bool {
	for _, r := range results {
		if !r.Correct {
			return false
		}
	}
	return true
}

// traceCheap reports whether every traced workload's operations ran within
// traceLimit of its untraced ones; past that the per-layer times describe
// the tracing, not the program.
func traceCheap(results []result) bool {
	ok := true
	for _, r := range results {
		if v := layerValue(r.Layers, "bench.trace_overhead_x"); v > traceLimit {
			fmt.Fprintf(logw, "bench: %s: tracing overhead %.3fx exceeds %.2fx\n", r.Workload, v, traceLimit)
			ok = false
		}
	}
	return ok
}

// runSet sets the workloads up, measures them and tears them down.
func runSet(o options, order []workload, tr *tracer) ([]result, error) {
	cfg := config{seed: o.seed, shape: shapeSeed, scale: o.scale, dataDir: o.dataDir}
	timedRun, tracedRun := o.trace != "1", o.trace != "0"

	insts := make([]instance, len(order))
	acc := make([]timed, len(order))
	defer func() {
		for _, inst := range insts {
			if inst != nil {
				inst.close()
			}
		}
	}()
	reps := 1
	if timedRun {
		reps = setupReps
	}
	for i, w := range order {
		// Set-up is data generation, the reference computation, booting
		// whatever the workload serves from, and one warm-up operation. It
		// is repeated so setup_s can be a median.
		for range reps {
			if insts[i] != nil {
				if err := insts[i].close(); err != nil {
					return nil, fmt.Errorf("%s: close: %w", w.name, err)
				}
				insts[i] = nil
			}
			t0 := time.Now()
			inst, err := w.setup(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			insts[i] = inst
			if s, _ := timeOp(w.name, inst, nil); s.failed {
				return nil, fmt.Errorf("%s: warm-up operation failed", w.name)
			}
			acc[i].setup = append(acc[i].setup, time.Since(t0))
		}
	}

	results := make([]result, len(order))
	for i, w := range order {
		results[i] = result{Workload: w.name}
	}
	if timedRun {
		// Interleaved rounds, so machine drift lands on every workload.
		slice := time.Duration(o.seconds / rounds * float64(time.Second))
		for range rounds {
			for i, w := range order {
				acc[i].slice(w.name, insts[i], slice)
			}
		}
		for i := range order {
			r := &results[i]
			r.Attempted, r.Failed = len(acc[i].samples), acc[i].failed()
			r.EndToEnd = acc[i].endToEnd(insts[i].tuples())
		}
	}
	if tracedRun {
		budget := time.Duration(0) // tracePairs operations of each kind
		if !timedRun {
			budget = time.Duration(o.seconds * float64(time.Second))
		}
		for i, w := range order {
			layers, attempted, failed, err := traceWorkload(w.name, insts[i], tr, budget)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
			}
			r := &results[i]
			r.Attempted += attempted
			r.Failed += failed
			r.Layers = layers
		}
		if err := tr.validate(); err != nil {
			return nil, err
		}
	}
	for i := range results {
		results[i].Correct = results[i].Failed == 0
	}
	return results, nil
}

// traceWorkload alternates untraced and traced operations until budget has
// passed (at least tracePairs of each), then runs the workload's direct-call
// probes. Time metrics are medians over the traced operations; counts are
// the same on every operation.
func traceWorkload(name string, inst instance, tr *tracer, budget time.Duration) (layers []metric, attempted, failed int, err error) {
	var plain, overhead, unattributed []float64
	var samples []layerSample
	start := time.Now()
	for {
		runtime.GC()
		u, _ := timeOp(name, inst, nil)
		runtime.GC()
		t, st := timeOp(name, inst, tr)
		attempted += 2
		for _, s := range []sample{u, t} {
			if s.failed {
				failed++
			}
		}
		plain = append(plain, u.wall.Seconds())
		overhead = append(overhead, ratio(t.wall.Seconds(), u.wall.Seconds()))
		unattributed = append(unattributed, st.root)
		m := layerSample{}
		inst.layers(st, m)
		samples = append(samples, m)
		if len(samples) >= tracePairs && time.Since(start) >= budget {
			break
		}
	}
	final := layerSample{}
	for _, lm := range layerMetrics {
		var vals []float64
		for _, m := range samples {
			if v, ok := m[lm.name]; ok {
				vals = append(vals, v)
			}
		}
		final[lm.name] = median(vals)
	}
	final["bench.trace_overhead_x"] = median(overhead) // pair by pair, so drift cancels
	final["bench.unattributed_s"] = median(unattributed)

	root := tr.beginOp(name, "probes")
	err = inst.probes(tr, root, median(plain), final)
	tr.end(root)
	if err != nil {
		return nil, attempted, failed, err
	}
	for _, lm := range layerMetrics {
		v := final[lm.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, attempted, failed, fmt.Errorf("%s is not finite", lm.name)
		}
		layers = append(layers, metric{Name: lm.name, Value: v, Unit: lm.unit, Better: lm.better, Samples: len(samples), Exact: lm.exact, Moves: lm.moves})
	}
	return layers, attempted, failed, nil
}

func layerValue(layers []metric, name string) float64 {
	for _, m := range layers {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// compareSets prints, for every end-to-end metric, the two sets' values and
// their relative difference, and names every exact count that differed. It
// reports whether the sets agree within the bounds.
func compareSets(out io.Writer, first, second []result) bool {
	ok := true
	fmt.Fprintf(out, "A/A: two sets of runs of the same code\n")
	for _, a := range first {
		i := slices.IndexFunc(second, func(r result) bool { return r.Workload == a.Workload })
		b := second[i]
		for k, ma := range a.EndToEnd {
			mb := b.EndToEnd[k]
			diff := math.Abs(mb.Value-ma.Value) / ma.Value
			verdict := "ok"
			if diff > bounds[ma.Name] {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(out, "  %-17s %-16s %12.6g %12.6g  %+6.2f%%  bound %4.1f%%  %s\n",
				a.Workload, ma.Name, ma.Value, mb.Value, 100*(mb.Value-ma.Value)/ma.Value, 100*bounds[ma.Name], verdict)
		}
		for k, la := range a.Layers {
			if lb := b.Layers[k]; la.Exact && la.Value != lb.Value {
				fmt.Fprintf(out, "  %-17s %-26s count differs: %v then %v\n", a.Workload, la.Name, la.Value, lb.Value)
				ok = false
			}
		}
	}
	return ok
}

func printReport(out io.Writer, o options, results []result) {
	fmt.Fprintf(out, "bench: shape %d, seed %d, scale %g, GOMAXPROCS %d, %g s window in %d interleaved slices, session logs on an in-memory disk, data under %s\n",
		shapeSeed, o.seed, o.scale, procs, o.seconds, rounds, o.dataDir)
	for _, r := range results {
		fmt.Fprintf(out, "\n%s: %d operations attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
		for _, m := range r.EndToEnd {
			fmt.Fprintf(out, "  %-26s %14.6g %-6s %-6s better  n=%-3d bound %g\n", m.Name, m.Value, m.Unit, m.Better, m.Samples, bounds[m.Name])
		}
		for _, m := range r.Layers {
			// Exact counts are printed digit for digit: later changes cite them.
			value, exact := fmt.Sprintf("%.6g", m.Value), " "
			if m.Exact {
				value, exact = strconv.FormatFloat(m.Value, 'f', -1, 64), "="
			}
			fmt.Fprintf(out, "  %-26s %20s %-6s %-6s better  n=%-3d %s  moves %s\n", m.Name, value, m.Unit, m.Better, m.Samples, exact, m.Moves)
		}
	}
	fmt.Fprintf(out, "\nnot exercised: discovery; align only with the identity schema\n")
}

// driverLine is one workload's result in the driver's format.
func driverLine(r result, trace string) map[string]any {
	ms := r.EndToEnd
	if trace == "1" {
		ms = r.Layers
	}
	metrics := map[string]any{}
	for _, m := range ms {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// describe builds BENCHMARK.json from the catalogues in this package.
func describe() map[string]any {
	type entry map[string]any
	var wls, e2e, layers []entry
	for _, w := range workloads {
		wls = append(wls, entry{"name": w.name, "why": w.why})
	}
	for _, m := range (&timed{}).endToEnd(0) {
		e2e = append(e2e, entry{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": bounds[m.Name]})
	}
	for _, m := range layerMetrics {
		layers = append(layers, entry{"name": m.name, "unit": m.unit, "better": m.better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

// runSeconds is the window the driver measures each run for.
const runSeconds = 15

func writeJSON(out io.Writer, v any, indent bool) int {
	enc := json.NewEncoder(out)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(logw, "bench: %v\n", err)
		return 1
	}
	return 0
}
