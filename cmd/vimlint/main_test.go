package main

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestListOutput pins the -list table: one line per analyzer, in suite
// order, each carrying the name and its one-line contract.
func TestListOutput(t *testing.T) {
	got := listText()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	want := []struct {
		name     string
		contract string
	}{
		{"walltime", "forbid wall-clock reads"},
		{"seededrand", "forbid global math/rand functions"},
		{"maporder", "forbid order-sensitive work"},
		{"psunits", "Ps-suffixed identifiers are picosecond scalars"},
		{"passiveobserver", "must not assign into observed parameters"},
	}
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), got)
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w.name) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w.name)
		}
		if !strings.Contains(lines[i], w.contract) {
			t.Errorf("line %d = %q, want contract substring %q", i, lines[i], w.contract)
		}
		a := lint.ByName(w.name)
		if a == nil {
			t.Fatalf("analyzer %q not registered", w.name)
		}
		if !strings.Contains(lines[i], a.Contract()) {
			t.Errorf("line %d = %q does not carry %s's contract %q", i, lines[i], w.name, a.Contract())
		}
		if strings.Contains(a.Contract(), "\n") {
			t.Errorf("%s contract is not one line: %q", w.name, a.Contract())
		}
	}
}

// TestRunList checks the -list flag end to end through the flag parser.
func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", code, errb.String())
	}
	if out.String() != listText() {
		t.Errorf("run(-list) output differs from listText():\n%s", out.String())
	}
	if errb.Len() != 0 {
		t.Errorf("run(-list) wrote to stderr: %s", errb.String())
	}
}
