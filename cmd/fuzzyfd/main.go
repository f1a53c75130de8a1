// Command fuzzyfd integrates a set of CSV tables with Fuzzy Full
// Disjunction from the command line:
//
//	fuzzyfd t1.csv t2.csv t3.csv                 # integrate, print result
//	fuzzyfd -out integrated.csv t1.csv t2.csv    # write CSV instead
//	fuzzyfd -equi t1.csv t2.csv                  # regular FD baseline
//	fuzzyfd -model llama3 -theta 0.6 ...         # tune the matcher
//	fuzzyfd -align -headers ...                  # content-based alignment
//	fuzzyfd -prov ...                            # append a provenance column
//	fuzzyfd -session t1.csv t2.csv t3.csv ...    # incremental integration
//	fuzzyfd -stream t1.csv t2.csv                # JSONL result via StreamJSONL
//	fuzzyfd -progress ...                        # live phase/component progress
//	fuzzyfd -stats ...                           # pivot columns, skip counts, assignment shape
//	fuzzyfd -cpuprofile cpu.pb.gz ...            # write a CPU profile
//	fuzzyfd -memprofile mem.pb.gz ...            # write a heap profile at exit
//	fuzzyfd -pprof localhost:6060 ...            # serve net/http/pprof live
//
// With -session the files are integrated incrementally: the first two
// form the initial set, then every further file is added to the running
// session and the integration is recomputed — only the components the new
// tuples touch are re-closed. Per-step timings and reuse statistics go to
// stderr, so the amortization of the session state is directly visible;
// the final result prints as usual.
//
// With -stream the integrated rows are written to stdout as JSON Lines by
// fuzzyfd.StreamJSONL, in the result's order: the same bytes as -json.
//
// Ctrl-C (or SIGTERM) cancels a running integration cleanly: the closure
// stops at the next cancellation checkpoint — even inside a single huge
// component — partial progress statistics are printed, and the process
// exits with status 130.
//
// Statistics (phase timings, merge counts) go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"fuzzyfd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fuzzyfd: ")

	var (
		model    = flag.String("model", fuzzyfd.ModelMistral, "embedding model: "+strings.Join(fuzzyfd.Models(), "|"))
		theta    = flag.Float64("theta", fuzzyfd.DefaultThreshold, "value matching threshold in (0,1]")
		equi     = flag.Bool("equi", false, "disable value matching (regular FD baseline)")
		alignC   = flag.Bool("align", false, "align columns by content instead of by name")
		headers  = flag.Bool("headers", false, "with -align, also use header text")
		workers  = flag.Int("workers", 1, "parallel FD workers")
		budget   = flag.Int("budget", 0, "abort if the FD closure exceeds this many tuples (0 = unlimited)")
		statsF   = flag.Bool("stats", false, "report per-component pivot columns, skipped candidates and value-assignment shape on stderr")
		session  = flag.Bool("session", false, "integrate incrementally: add one file at a time to a persistent session")
		stream   = flag.Bool("stream", false, "write the result to stdout as JSON Lines via StreamJSONL (the bytes of -json)")
		progress = flag.Bool("progress", false, "report pipeline phases and per-component closure progress on stderr")
		out      = flag.String("out", "", "write the integrated table to this CSV file instead of stdout")
		prov     = flag.Bool("prov", false, "append a provenance column (source tuple IDs)")
		jsonOut  = flag.Bool("json", false, "emit JSON Lines instead of a rendered table/CSV")
		quiet    = flag.Bool("q", false, "suppress statistics on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	paths := flag.Args()
	if len(paths) < 2 {
		log.Fatal("need at least two CSV files to integrate")
	}
	if *stream && (*session || *out != "" || *prov) {
		log.Fatal("-stream writes JSONL to stdout and combines only with matcher/engine flags")
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf, *pprofSrv)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	// Ctrl-C / SIGTERM cancel the running integration at its next
	// cancellation checkpoint. The first signal only cancels ctx; the
	// AfterFunc then unregisters the handler, so a second signal gets
	// default handling and kills even a run stuck between checkpoints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	tables := make([]*fuzzyfd.Table, len(paths))
	for i, p := range paths {
		t, err := fuzzyfd.ReadCSVFile(p)
		if err != nil {
			log.Fatal(err)
		}
		tables[i] = t
	}

	opts := []fuzzyfd.Option{
		fuzzyfd.WithModel(*model),
		fuzzyfd.WithThreshold(*theta),
	}
	if *equi {
		opts = append(opts, fuzzyfd.WithEquiJoin())
	}
	if *alignC {
		opts = append(opts, fuzzyfd.WithContentAlignment(*headers))
	}
	if *workers > 1 {
		opts = append(opts, fuzzyfd.WithParallelFD(*workers))
	}
	if *budget > 0 {
		opts = append(opts, fuzzyfd.WithTupleBudget(*budget))
	}
	// Always observe progress: -progress prints it live, and a canceled
	// run reports how far it got either way.
	tracker := &progressTracker{print: *progress, stats: *statsF}
	opts = append(opts, fuzzyfd.WithProgress(tracker.observe))

	var res *fuzzyfd.Result
	switch {
	case *stream:
		res, err = fuzzyfd.StreamJSONL(ctx, os.Stdout, tables, opts...)
	case *session:
		res, err = runSession(ctx, tables, paths, opts, *quiet)
	default:
		res, err = fuzzyfd.IntegrateContext(ctx, tables, opts...)
	}
	if err != nil {
		if errors.Is(err, fuzzyfd.ErrCanceled) {
			tracker.reportCanceled(err)
			stopProfiles() // os.Exit bypasses the deferred stop
			os.Exit(130)
		}
		log.Fatal(err)
	}

	if !*stream {
		result := res.Table
		if *prov {
			result = res.TableWithProvenance()
		}
		switch {
		case *jsonOut:
			if err := fuzzyfd.WriteJSONL(os.Stdout, result); err != nil {
				log.Fatal(err)
			}
		case *out != "":
			if err := fuzzyfd.WriteCSVFile(*out, result); err != nil {
				log.Fatal(err)
			}
		default:
			fmt.Print(result)
		}
	}

	if *statsF {
		tracker.reportPivot(res)
		if ms := res.MatchStats; ms.CandidatePairs > 0 {
			fmt.Fprintf(os.Stderr, "assignment: %d candidate pairs scored, %d edges under θ", ms.CandidatePairs, ms.Edges)
			if ms.AssignComponents > 0 {
				fmt.Fprintf(os.Stderr, ", %d sparse components (largest %d×%d)", ms.AssignComponents,
					ms.LargestAssignComponent[0], ms.LargestAssignComponent[1])
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if !*quiet {
		rows := res.FDStats.Output
		fmt.Fprintf(os.Stderr,
			"integrated %d tables: %d input tuples -> %d rows (merges=%d subsumed=%d)\n",
			len(tables), res.FDStats.InputTuples, rows,
			res.FDStats.Merges, res.FDStats.Subsumed)
		fmt.Fprintf(os.Stderr, "timings: align=%v match=%v fd=%v total=%v\n",
			res.Timings.Align, res.Timings.Match, res.Timings.FD, res.Timings.Total)
		if res.MatchStats.Rewrites > 0 {
			fmt.Fprintf(os.Stderr, "value matching: %d clusters, %d merged, %d cells rewritten\n",
				res.MatchStats.Clusters, res.MatchStats.Merged, res.MatchStats.Rewrites)
		}
	}
}

// startProfiles wires up the optional profiling outputs: a CPU profile
// covering the whole run, a heap profile captured at exit, and a live
// net/http/pprof listener. The returned stop function flushes and closes
// the profile files; it is idempotent, and the cancellation path calls it
// explicitly because os.Exit bypasses defers. Error paths that log.Fatal
// lose in-flight profiles — they abort before any work worth profiling.
func startProfiles(cpu, mem, addr string) (func(), error) {
	if addr != "" {
		go func() {
			log.Printf("pprof: serving on http://%s/debug/pprof/", addr)
			if err := http.ListenAndServe(addr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					log.Print(err)
				}
			}
			if mem == "" {
				return
			}
			f, err := os.Create(mem)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
			if err := f.Close(); err != nil {
				log.Print(err)
			}
		})
	}
	return stop, nil
}

// progressTracker records the latest pipeline progress for cancellation
// reporting and optionally prints it live. Events arrive from the
// integrating goroutine — the same one that later reads the fields, so no
// locking is needed.
type progressTracker struct {
	print      bool
	stats      bool // -stats: collect per-component pivot usage
	phase      string
	components int // closed so far in the FD phase
	total      int
	closure    int // closure tuples across closed components
	// Pivot usage, keyed by output column index; resolved to column names
	// only after the run, when the aligned schema exists.
	pivoted      map[int]int // pivot column -> components bucketed by it
	unbucketed   int         // components closed without a pivot
	pivotSkipped int
}

func (p *progressTracker) observe(ev fuzzyfd.ProgressEvent) {
	p.phase = ev.Phase
	if ev.Phase == fuzzyfd.PhaseFD && !ev.Done && ev.Component == 0 {
		// A new FD run starts (each -session step runs one): the partial
		// counters describe only the run a cancellation would interrupt.
		p.components, p.total, p.closure = 0, 0, 0
	}
	if ev.Component > 0 {
		p.components = ev.Component
		p.total = ev.Components
		p.closure += ev.ClosureTuples
		if p.stats {
			if ev.PivotColumn >= 0 {
				if p.pivoted == nil {
					p.pivoted = make(map[int]int)
				}
				p.pivoted[ev.PivotColumn]++
				p.pivotSkipped += ev.PivotSkipped
			} else {
				p.unbucketed++
			}
		}
	}
	if !p.print {
		return
	}
	switch {
	case ev.Done:
		fmt.Fprintf(os.Stderr, "progress: %s done in %v\n", ev.Phase, ev.Elapsed.Round(time.Microsecond))
	case ev.Component > 0:
		// Cap component chatter: data-lake inputs close thousands of
		// singleton components; report ~20 waypoints plus the last.
		step := ev.Components/20 + 1
		if ev.Component%step == 0 || ev.Component == ev.Components {
			fmt.Fprintf(os.Stderr, "progress: fd component %d/%d closed (%d closure tuples)\n",
				ev.Component, ev.Components, ev.ClosureTuples)
		}
	default:
		fmt.Fprintf(os.Stderr, "progress: %s...\n", ev.Phase)
	}
}

// reportPivot prints which pivot columns the closure bucketed components
// by and how much candidate iteration that skipped. Column indexes resolve
// to names only here — the aligned output schema does not exist until the
// run completes.
func (p *progressTracker) reportPivot(res *fuzzyfd.Result) {
	if len(p.pivoted) == 0 {
		fmt.Fprintf(os.Stderr, "pivot: no component large or selective enough to bucket (%d closed unbucketed)\n",
			p.unbucketed)
		return
	}
	cols := make([]int, 0, len(p.pivoted))
	for c := range p.pivoted {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, c := range cols {
		fmt.Fprintf(os.Stderr, "pivot: %d component(s) bucketed by column %q\n",
			p.pivoted[c], res.Schema.Columns[c])
	}
	fmt.Fprintf(os.Stderr, "pivot: skipped %d candidate probes (%d buckets, %d components unbucketed)\n",
		p.pivotSkipped, res.FDStats.PivotBuckets, p.unbucketed)
}

// reportCanceled prints how far the integration got before cancellation.
func (p *progressTracker) reportCanceled(err error) {
	fmt.Fprintf(os.Stderr, "canceled: %v\n", err)
	if p.components > 0 {
		fmt.Fprintf(os.Stderr, "canceled during %s: %d/%d components closed (%d closure tuples) — partial work discarded\n",
			p.phase, p.components, p.total, p.closure)
	} else if p.phase != "" {
		fmt.Fprintf(os.Stderr, "canceled during %s phase\n", p.phase)
	}
}

// runSession integrates the tables incrementally — the first two seed the
// session, then one table per step — reporting per-step wall clock and
// how much closure work the session reused. Returns the final result.
func runSession(ctx context.Context, tables []*fuzzyfd.Table, paths []string, opts []fuzzyfd.Option, quiet bool) (*fuzzyfd.Result, error) {
	s, err := fuzzyfd.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	var res *fuzzyfd.Result
	var total time.Duration
	for i := 0; i < len(tables); i++ {
		s.Add(tables[i])
		if i == 0 && len(tables) > 1 {
			continue // seed with two tables before the first integration
		}
		stepStart := time.Now()
		res, err = s.IntegrateContext(ctx)
		if err != nil {
			if errors.Is(err, fuzzyfd.ErrCanceled) {
				return nil, err
			}
			return nil, fmt.Errorf("session step %d (%s): %w", s.Tables(), paths[i], err)
		}
		step := time.Since(stepStart)
		total += step
		if !quiet {
			f := res.FDStats
			fmt.Fprintf(os.Stderr,
				"session step %d (+%s): %d rows in %v — reclosed %d/%d closure tuples in %d/%d components, %d values reused\n",
				s.Tables(), paths[i], res.Table.NumRows(), step.Round(time.Microsecond),
				f.ReclosedTuples, f.Closure, f.DirtyComponents, f.Components, f.ReusedValues)
		}
	}
	if !quiet {
		n := len(tables) - 1
		if n < 1 {
			n = 1
		}
		fmt.Fprintf(os.Stderr, "session total: %v over %d integrations (amortized %v/step)\n",
			total.Round(time.Microsecond), n, (total / time.Duration(n)).Round(time.Microsecond))
		if hits := s.RewriteCacheHits(); hits > 0 {
			fmt.Fprintf(os.Stderr, "session cache: %d table rewrites served from memoized views\n", hits)
		}
	}
	return res, nil
}
