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

// expectUsageError runs the command with args and requires the usage-error
// contract: exit 2, a message naming flag, nothing on stdout (no model
// built or trained) and no panic.
func expectUsageError(t *testing.T, flag string, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%v: want exit status 2, got %v (stderr %q)", args, err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("%v: trained before rejecting the flag: %q", args, stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, flag) || strings.Contains(msg, "panic") {
		t.Fatalf("%v: stderr must name %s without panicking, got %q", args, flag, msg)
	}
}

// TestRejectsNonPositiveBatch: a -batch below 1 is a usage error reported
// before any model is built or trained, instead of training on empty
// batches (loss NaN, exit 0) or panicking on a negative tensor dimension.
func TestRejectsNonPositiveBatch(t *testing.T) {
	for _, batch := range []string{"0", "-4"} {
		expectUsageError(t, "-batch", "-batch", batch, "-iters", "1")
	}
}

// TestRejectsNonPositiveIters: -iters below 1 would exit 0 having trained
// nothing.
func TestRejectsNonPositiveIters(t *testing.T) {
	for _, iters := range []string{"0", "-3"} {
		expectUsageError(t, "-iters", "-iters", iters)
	}
}

// TestRejectsBadLearningRate: a learning rate that is not finite and
// positive trains nothing useful or diverges at once.
func TestRejectsBadLearningRate(t *testing.T) {
	for _, lr := range []string{"0", "-0.1", "NaN", "+Inf", "-Inf"} {
		expectUsageError(t, "-lr", "-lr", lr, "-iters", "1")
	}
}
