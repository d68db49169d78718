package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCPUProfile runs one small experiment with -cpuprofile: it must leave
// a non-empty, gzip-framed pprof file, written whole before the run
// returns. The experiment's report is discarded.
func TestCPUProfile(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	path := filepath.Join(t.TempDir(), "cpu.out")
	if code, err := profiled(path, func() (int, error) { return execute("FIG7", false, 1) }); code != 0 || err != nil {
		t.Fatalf("exit %d, %v", code, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("profile is %d bytes, not gzip-framed", len(data))
	}
}
