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

// mainEnv, when set to 1, makes the test binary run the command's main
// instead of the tests, so a test can re-execute itself as the command
// and observe the real exit status.
const mainEnv = "FUTURERD_TRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs futurerd-trace with args and returns its exit status
// and standard error.
func runCommand(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("futurerd-trace %v: %v", args, err)
	return 0, ""
}

// TestVariantExitStatus: run and record reject a misspelled -variant
// with exit status 2, like -size, -mode and -mem, instead of silently
// running the structured variant; both real variants still run.
func TestVariantExitStatus(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lcs.trace")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"run", "-bench", "lcs", "-size", "test", "-variant", "structured"}, 0},
		{[]string{"run", "-bench", "lcs", "-size", "test", "-variant", "general"}, 0},
		{[]string{"run", "-bench", "lcs", "-size", "test", "-variant", "genral"}, 2},
		{[]string{"record", "-bench", "lcs", "-size", "test", "-variant", "genral", "-o", out}, 2},
	} {
		code, stderr := runCommand(t, c.args...)
		if code != c.want {
			t.Fatalf("%v: exit status %d, want %d (stderr %q)", c.args, code, c.want, stderr)
		}
		if c.want == 2 && !strings.Contains(stderr, `unknown -variant "genral"`) {
			t.Fatalf("%v: stderr %q does not name the bad variant", c.args, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("record with a bad -variant created %s", out)
	}
}
