package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one timed operation of a workload.
type sample struct {
	wall    time.Duration
	cpu     time.Duration // process user+system CPU over the operation
	alloc   uint64        // runtime.MemStats.TotalAlloc delta over the operation
	quality float64       // F1 of the operation's output against its reference
	failed  bool
}

// timed is what one workload accumulates over its timed slices.
type timed struct {
	samples []sample
	setup   []time.Duration // one entry per repeated set-up
}

// cpuTime reads the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeOp runs one operation between wall-clock, CPU and allocation readings,
// then checks its output against the reference outside them. Under a tracer
// it also returns the operation's span summary.
func timeOp(name string, inst instance, tr *tracer) (sample, spanTimes) {
	root := tr.beginOp(name, "op")
	a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
	err := inst.run(tr, root)
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0, alloc: totalAlloc() - a0}
	tr.end(root)
	if err == nil {
		s.quality, err = inst.check()
	}
	if err != nil {
		s.failed = true
		fmt.Fprintf(logw, "bench: %s: operation failed: %v\n", name, err)
	}
	if tr == nil {
		return s, spanTimes{}
	}
	return s, analyse(tr.opSpans(root))
}

// slice runs operations back to back (closed loop, one at a time) until d
// has elapsed, always at least one.
func (t *timed) slice(name string, inst instance, d time.Duration) {
	runtime.GC()
	start := time.Now()
	for {
		s, _ := timeOp(name, inst, nil)
		t.samples = append(t.samples, s)
		if time.Since(start) >= d {
			return
		}
	}
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
	Exact   bool    `json:"exact,omitempty"` // a count that must repeat run to run
	Moves   string  `json:"moves,omitempty"` // per-layer: the end-to-end metrics and workloads it should move
}

// endToEnd reduces a workload's samples to the six end-to-end metrics, every
// one a statistic over all timed operations: the median wall time, and the
// input tuples, CPU seconds and allocated bytes of the whole window divided
// by its wall time or its operations, so a stall that a median hides still
// shows in tuples_per_s.
func (t *timed) endToEnd(tuplesPerOp int) []metric {
	var walls []float64
	var cpu, quality float64
	var alloc uint64
	for _, s := range t.samples {
		walls = append(walls, s.wall.Seconds())
		cpu += s.cpu.Seconds()
		alloc += s.alloc
		quality += s.quality
	}
	setups := make([]float64, len(t.setup))
	for i, d := range t.setup {
		setups[i] = d.Seconds()
	}
	n := len(t.samples)
	ops := float64(n)
	return []metric{
		{Name: "op_s_p50", Value: median(walls), Unit: "s", Better: "lower", Samples: n},
		{Name: "tuples_per_s", Value: ratio(float64(tuplesPerOp)*ops, sum(walls)), Unit: "1/s", Better: "higher", Samples: n},
		{Name: "cpu_s_per_op", Value: ratio(cpu, ops), Unit: "s", Better: "lower", Samples: n},
		{Name: "alloc_mb_per_op", Value: ratio(float64(alloc)/1e6, ops), Unit: "MB", Better: "lower", Samples: n},
		{Name: "quality_f1", Value: ratio(quality, ops), Unit: "ratio", Better: "higher", Samples: n},
		{Name: "setup_s", Value: median(setups), Unit: "s", Better: "lower", Samples: len(setups)},
	}
}

func (t *timed) failed() int {
	n := 0
	for _, s := range t.samples {
		if s.failed {
			n++
		}
	}
	return n
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
