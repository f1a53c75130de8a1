package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyfd"
)

// TestMain runs main itself when the test binary is re-executed with
// FUZZYFD_ARGS set, so a test can drive the command as a user would.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FUZZYFD_ARGS"); ok {
		os.Args = append([]string{"fuzzyfd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args and returns its stderr and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FUZZYFD_ARGS="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// A memory budget the closure exceeds fails the run with exit status 1 and
// one line that names the FD phase once.
func TestMemoryBudgetErrorLine(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	if err := os.WriteFile(a, []byte("City,Country\nBerlinn,Germany\nToronto,Canada\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("Country,City,VacRate\nCA,Toronto,83%\nDE,Berlin,63%\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, code := runCLI(t, "-memory-budget", "1", a, b)
	if want := "fuzzyfd: core: fd: memory budget exceeded\n"; code != 1 || stderr != want {
		t.Fatalf("exit %d, stderr %q; want exit 1, stderr %q", code, stderr, want)
	}
}

// Under -session every step runs its own FD phase. The pivot lines of
// -stats describe the last step alone, as its FDStats do: the per-column
// component counts, skipped probes and unbucketed count restart with each
// FD run instead of summing every step's.
func TestReportPivotDescribesLastRun(t *testing.T) {
	p := &progressTracker{stats: true}
	for _, ev := range []fuzzyfd.ProgressEvent{
		{Phase: fuzzyfd.PhaseFD},
		{Phase: fuzzyfd.PhaseFD, Component: 1, Components: 2, PivotColumn: 0, PivotSkipped: 5},
		{Phase: fuzzyfd.PhaseFD, Component: 2, Components: 2, PivotColumn: -1},
		{Phase: fuzzyfd.PhaseFD, Done: true},
		{Phase: fuzzyfd.PhaseFD},
		{Phase: fuzzyfd.PhaseFD, Component: 1, Components: 1, PivotColumn: 1, PivotSkipped: 3},
		{Phase: fuzzyfd.PhaseFD, Done: true},
	} {
		p.observe(ev)
	}
	res := &fuzzyfd.Result{
		Schema:  fuzzyfd.Schema{Columns: []string{"a", "b"}},
		FDStats: fuzzyfd.FDStats{PivotBuckets: 4, PivotGroups: 2},
	}
	var out bytes.Buffer
	p.reportPivot(&out, res)
	want := `pivot: 1 component(s) bucketed by column "b"
pivot: skipped 3 candidate probes (4 buckets, 0 components unbucketed)
pivot: hubs closed by 2 pivot-value groups
`
	if out.String() != want {
		t.Fatalf("report after two FD runs:\n%s\nwant the second run's:\n%s", out.String(), want)
	}
}
