package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as hotline-train when set, so the
// tests can observe the command's real exit code and output streams.
const runMainEnv = "HOTLINE_TRAIN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveBatch: a -batch below 1 is a usage error reported
// before any model is built or trained — exit 2, a message naming the
// flag, nothing on stdout — instead of training on empty batches (loss
// NaN, exit 0) or panicking on a negative tensor dimension.
func TestRejectsNonPositiveBatch(t *testing.T) {
	for _, batch := range []string{"0", "-4"} {
		cmd := exec.Command(os.Args[0], "-batch", batch, "-iters", "1")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-batch %s: want exit status 2, got %v (stderr %q)", batch, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("-batch %s: trained before rejecting the flag: %q", batch, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, "-batch") || strings.Contains(msg, "panic") {
			t.Fatalf("-batch %s: stderr must name the flag without panicking, got %q", batch, msg)
		}
	}
}
