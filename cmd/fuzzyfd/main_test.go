package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
