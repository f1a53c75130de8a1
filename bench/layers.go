package main

import (
	"bytes"
	"io"
	"runtime"
	"time"

	"fuzzyfd/internal/core"
	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/em"
	"fuzzyfd/internal/fd"
	"fuzzyfd/internal/intern"
	"fuzzyfd/internal/table"
)

// layerSample holds per-layer numbers by metric name.
type layerSample map[string]float64

// layerMetric describes one per-layer metric: how it is reported and which
// end-to-end metric it is expected to move, on which workload.
type layerMetric struct {
	name   string
	unit   string
	better string
	exact  bool   // a count that must repeat exactly run to run
	moves  string // the end-to-end metrics and workloads it should move
}

// layerMetrics is the catalogue of per-layer metrics, in report order. A
// workload that does not exercise a layer reports 0 for it.
var layerMetrics = []layerMetric{
	{"table.parse_mb_per_s", "MB/s", "higher", false, "serve-durable/op_s_p50"},
	{"table.parse_allocs_per_row", "count", "lower", false, "serve-durable/alloc_mb_per_op"},
	{"table.encode_rows_per_s", "1/s", "higher", false, "serve-durable/op_s_p50"},
	{"intern.ns_per_cell", "ns", "lower", false, "serve-durable/cpu_s_per_op, session-fuzzy/alloc_mb_per_op"},
	{"intern.values", "count", "lower", true, "serve-durable/cpu_s_per_op"},
	{"intern.reused_values", "count", "higher", true, "session-fuzzy/alloc_mb_per_op"},
	{"align.busy_s", "s", "lower", false, "none: identity schema everywhere, expected ~0"},
	{"embed.calls", "count", "lower", true, "fig3-fuzzy/op_s_p50, quality-autojoin/op_s_p50"},
	{"embed.busy_s", "s", "lower", false, "fig3-fuzzy/op_s_p50, quality-autojoin/op_s_p50"},
	{"embed.distinct_values", "count", "lower", true, "fig3-fuzzy/op_s_p50"},
	{"embed.cache_hit_ratio", "ratio", "higher", false, "session-fuzzy/op_s_p50 only"},
	{"match.self_s", "s", "lower", false, "fig3-fuzzy/op_s_p50, quality-autojoin/op_s_p50; fig3-equi flat"},
	{"match.clusters", "count", "lower", true, "quality-autojoin/quality_f1 must not move"},
	{"match.merged_clusters", "count", "higher", true, "quality-autojoin/quality_f1 must not move"},
	{"match.rewrites", "count", "lower", true, "fig3-fuzzy/op_s_p50"},
	{"core.align_s", "s", "lower", false, "fig3-fuzzy/op_s_p50"},
	{"core.match_s", "s", "lower", false, "fig3-fuzzy/op_s_p50, session-fuzzy/op_s_p50"},
	{"core.fd_s", "s", "lower", false, "fig3-equi/op_s_p50"},
	{"core.match_share", "ratio", "lower", false, "fig3-fuzzy/op_s_p50"},
	{"core.rewrite_cache_hits", "count", "higher", true, "session-fuzzy/op_s_p50"},
	{"core.fuzzy_over_equi_x", "x", "lower", false, "fig3-fuzzy/op_s_p50 over fig3-equi/op_s_p50"},
	{"core.session_over_batch_x", "x", "lower", false, "session-fuzzy/op_s_p50"},
	{"fd.busy_s", "s", "lower", false, "fig3-equi/op_s_p50, fig3-equi/cpu_s_per_op"},
	{"fd.input_tuples", "count", "lower", true, "fig3-equi/op_s_p50"},
	{"fd.outer_union", "count", "lower", true, "fig3-equi/op_s_p50"},
	{"fd.components", "count", "higher", true, "fig3-equi/op_s_p50"},
	{"fd.dirty_components", "count", "lower", true, "session-fuzzy/op_s_p50"},
	{"fd.largest_comp", "count", "lower", true, "fig3-equi/op_s_p50"},
	{"fd.merge_attempts", "count", "lower", true, "fig3-equi/op_s_p50, fig3-equi/cpu_s_per_op"},
	{"fd.merges", "count", "lower", true, "fig3-equi/op_s_p50"},
	{"fd.merge_yield", "ratio", "higher", false, "fig3-equi/cpu_s_per_op"},
	{"fd.pivot_skipped", "count", "higher", true, "fig3-equi/op_s_p50"},
	{"fd.closure_tuples", "count", "lower", true, "fig3-equi/alloc_mb_per_op"},
	{"fd.reclosed_tuples", "count", "lower", true, "session-fuzzy/op_s_p50, serve-durable/op_s_p50"},
	{"fd.reclosed_ratio", "ratio", "lower", false, "session-fuzzy/op_s_p50, serve-durable/op_s_p50; fig3-equi flat"},
	{"fd.seed_reused_tuples", "count", "higher", true, "session-fuzzy/op_s_p50"},
	{"fd.subsumed", "count", "lower", true, "fig3-equi/op_s_p50"},
	{"fd.output_rows", "count", "lower", true, "none: a change is a correctness failure"},
	{"fd.slowest_component_ms", "ms", "lower", false, "fig3-equi/op_s_p50"},
	{"fd.par2_speedup_x", "x", "higher", false, "fig3-equi/op_s_p50 were parallel FD the default"},
	{"fd.par2_cpu_x", "x", "lower", false, "fig3-equi/cpu_s_per_op were parallel FD the default"},
	{"wal.appends", "count", "lower", true, "serve-durable/op_s_p50"},
	{"wal.fsyncs", "count", "lower", true, "serve-durable/op_s_p50 on a real device"},
	{"wal.bytes_written", "count", "lower", true, "serve-durable/tuples_per_s"},
	{"wal.files_created", "count", "lower", true, "serve-durable/op_s_p50"},
	{"wal.write_amp", "x", "lower", false, "serve-durable/tuples_per_s"},
	{"wal.fs_busy_s", "s", "lower", false, "serve-durable/op_s_p50"},
	{"wal.snapshots", "count", "lower", true, "serve-durable/op_s_p50"},
	{"wal.snapshot_ms_max", "ms", "lower", false, "serve-durable/op_s_p50 (server.add_ms_max)"},
	{"wal.recover_ms", "ms", "lower", false, "none: restart cost, outside the operation"},
	{"wal.replayed_frames", "count", "lower", true, "wal.recover_ms"},
	{"server.adds", "count", "lower", true, "serve-durable/op_s_p50"},
	{"server.add_ms_p50", "ms", "lower", false, "serve-durable/op_s_p50"},
	{"server.add_ms_p99", "ms", "lower", false, "serve-durable/op_s_p50; session-fuzzy flat"},
	{"server.add_ms_max", "ms", "lower", false, "serve-durable/op_s_p50"},
	{"server.stream_ms_p50", "ms", "lower", false, "serve-durable/op_s_p50"},
	{"server.stream_rows_per_s", "1/s", "higher", false, "serve-durable/op_s_p50"},
	{"server.integrations_per_add", "ratio", "lower", false, "serve-durable/cpu_s_per_op"},
	{"server.handler_busy_s", "s", "lower", false, "serve-durable/op_s_p50"},
	{"server.overhead_share", "ratio", "lower", false, "serve-durable/op_s_p50"},
	{"server.rejected", "count", "lower", true, "none: expected 0"},
	{"metrics.scrape_ms", "ms", "lower", false, "none: scrape cost, outside the operation"},
	{"em.f1_fuzzy", "ratio", "higher", true, "none: the paper's downstream-quality pin"},
	{"em.f1_equi", "ratio", "higher", true, "none: the paper's downstream-quality pin"},
	{"bench.trace_overhead_x", "x", "lower", false, "none: must stay at or below 1.10"},
	{"bench.unattributed_s", "s", "lower", false, "none: operation time no layer span covers"},
}

// pipeline fills the embed, match, core and fd numbers of one operation
// from the results of its integrations (the last is the final state, work
// counters add up over the session) and from its spans.
func (m layerSample) pipeline(results []*core.Result, st spanTimes) {
	if len(results) == 0 {
		return
	}
	var t core.Timings
	var work fd.Stats
	closure := 0
	for _, r := range results {
		t.Align += r.Timings.Align
		t.Match += r.Timings.Match
		t.FD += r.Timings.FD
		s := r.FDStats
		work.ReusedValues += s.ReusedValues
		work.DirtyComponents += s.DirtyComponents
		work.MergeAttempts += s.MergeAttempts
		work.Merges += s.Merges
		work.PivotSkipped += s.PivotSkipped
		work.ReclosedTuples += s.ReclosedTuples
		work.SeedReusedTuples += s.SeedReusedTuples
		closure += s.Closure
	}
	last := results[len(results)-1]
	final := last.FDStats

	m["align.busy_s"] = st.self[core.PhaseAlign]
	m["embed.calls"] = float64(st.count["embed"])
	m["embed.busy_s"] = st.busy["embed"]
	m["match.self_s"] = st.self[core.PhaseMatch]
	m["match.clusters"] = float64(last.MatchStats.Clusters)
	m["match.merged_clusters"] = float64(last.MatchStats.Merged)
	m["match.rewrites"] = float64(last.MatchStats.Rewrites)
	m["core.align_s"] = t.Align.Seconds()
	m["core.match_s"] = t.Match.Seconds()
	m["core.fd_s"] = t.FD.Seconds()
	m["core.match_share"] = ratio(t.Match.Seconds(), (t.Align + t.Match + t.FD).Seconds())
	m["intern.values"] = float64(final.Values)
	m["intern.reused_values"] = float64(work.ReusedValues)
	m["fd.busy_s"] = t.FD.Seconds()
	m["fd.input_tuples"] = float64(final.InputTuples)
	m["fd.outer_union"] = float64(final.OuterUnion)
	m["fd.components"] = float64(final.Components)
	m["fd.dirty_components"] = float64(work.DirtyComponents)
	m["fd.largest_comp"] = float64(final.LargestComp)
	m["fd.merge_attempts"] = float64(work.MergeAttempts)
	m["fd.merges"] = float64(work.Merges)
	m["fd.merge_yield"] = ratio(float64(work.Merges), float64(work.MergeAttempts))
	m["fd.pivot_skipped"] = float64(work.PivotSkipped)
	m["fd.closure_tuples"] = float64(final.Closure)
	m["fd.reclosed_tuples"] = float64(work.ReclosedTuples)
	m["fd.reclosed_ratio"] = ratio(float64(work.ReclosedTuples), float64(closure))
	m["fd.seed_reused_tuples"] = float64(work.SeedReusedTuples)
	m["fd.subsumed"] = float64(final.Subsumed)
	m["fd.output_rows"] = float64(final.Output)
	slowest := 0.0
	for _, d := range st.named("fd", "component") {
		slowest = max(slowest, d)
	}
	m["fd.slowest_component_ms"] = slowest * 1e3
}

// internProbe interns every cell of the tables into a fresh dictionary.
func (m layerSample) internProbe(tr *tracer, root int, tables []*table.Table) {
	var cells [][]string
	for _, t := range tables {
		for c := range t.Columns {
			cells = append(cells, t.ColumnValues(c))
		}
	}
	m.internCells(tr, root, cells)
}

// internCells reports the cost per interned cell and returns the number of
// distinct values.
func (m layerSample) internCells(tr *tracer, root int, cells [][]string) int {
	n := 0
	id := tr.begin(root, "intern", "intern")
	t0 := time.Now()
	d := intern.NewDict()
	for _, col := range cells {
		for _, v := range col {
			d.Intern(v)
		}
		n += len(col)
	}
	el := time.Since(t0)
	tr.end(id)
	m["intern.ns_per_cell"] = ratio(float64(el.Nanoseconds()), float64(n))
	return d.Len()
}

// par2Probe closes the tables with the bare fd engine sequentially and with
// two workers, three times each in alternation.
func (m layerSample) par2Probe(tr *tracer, root int, tables []*table.Table) error {
	schema := fd.IdentitySchema(tables)
	var wall, cpu [2][]float64
	for range 3 {
		for i, workers := range []int{1, 2} {
			id := tr.begin(root, "fd", "bare")
			c0, t0 := cpuTime(), time.Now()
			_, err := fd.FullDisjunctionContext(ctx, tables, schema, fd.Options{Workers: workers})
			wall[i] = append(wall[i], time.Since(t0).Seconds())
			cpu[i] = append(cpu[i], (cpuTime() - c0).Seconds())
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	m["fd.par2_speedup_x"] = ratio(median(wall[0]), median(wall[1]))
	m["fd.par2_cpu_x"] = ratio(median(cpu[1]), median(cpu[0]))
	return nil
}

// emProbe pins the paper's downstream numbers (section 3.2): entity
// matching F1 over the fuzzy and the equi integration of the EM benchmark.
func (m layerSample) emProbe(tr *tracer, root int, seed int64) error {
	id := tr.begin(root, "em", "evaluate")
	defer tr.end(id)
	bench := datagen.EMBench(datagen.EMConfig{Seed: seed})
	for name, method := range map[string]core.Method{"em.f1_fuzzy": core.MethodFuzzyFD, "em.f1_equi": core.MethodEquiFD} {
		res, err := core.Integrate(bench.Tables, core.Config{Method: method, MatchWorkers: matchWorkers})
		if err != nil {
			return err
		}
		m[name] = em.Evaluate(res.FDResult(), bench.Gold, em.Options{}).F1
	}
	return nil
}

// tableProbe parses the JSONL bodies as the server does and encodes the
// result as the server streams it.
func (m layerSample) tableProbe(tr *tracer, root int, bodies [][]byte, result *table.Table) error {
	var ms0, ms1 runtime.MemStats
	size, parsed := 0, 0
	id := tr.begin(root, "table", "parse")
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, b := range bodies {
		t, err := table.ReadJSONLLimited(bytes.NewReader(b), "t", table.JSONLLimits{})
		if err != nil {
			return err
		}
		size += len(b)
		parsed += len(t.Rows)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	tr.end(id)
	m["table.parse_mb_per_s"] = ratio(float64(size)/1e6, el.Seconds())
	m["table.parse_allocs_per_row"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(parsed))

	id = tr.begin(root, "table", "encode")
	t0 = time.Now()
	err := table.WriteJSONL(io.Discard, result)
	el = time.Since(t0)
	tr.end(id)
	m["table.encode_rows_per_s"] = ratio(float64(len(result.Rows)), el.Seconds())
	return err
}
