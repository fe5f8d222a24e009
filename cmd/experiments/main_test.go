package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunEachExperiment smoke-tests every subcommand (the fast ones at
// small scale; the full sweep runs in CI-style via `experiments all`).
func TestRunEachExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment subcommands are slow")
	}
	for _, cmd := range []string{"tab1", "fifo", "markopt", "heapsize", "robustness", "stride", "hdrcache", "barriers", "numa"} {
		cmd := cmd
		t.Run(cmd, func(t *testing.T) {
			out := captureStdout(t, func() {
				if err := run(cmd); err != nil {
					t.Fatal(err)
				}
			})
			if len(out) < 50 || !strings.Contains(out, "-----") {
				t.Errorf("%s produced no table:\n%s", cmd, out)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out := <-done
	os.Stdout = old
	return out
}
