package main

import (
	"fmt"
	"io"
	"reflect"
	"testing"
)

func TestCompareReports(t *testing.T) {
	const maxRegress, noiseFloor = 0.25, 50_000
	cell := func(ns, bytes, allocs float64) Result {
		return Result{Name: "BenchmarkCell", NsPerOp: ns, Metrics: map[string]float64{"B/op": bytes, "allocs/op": allocs}}
	}
	base := cell(10e6, 1_000_000, 1000)
	simCell := func(ns float64, metric string, v float64) Result {
		return Result{Name: "BenchmarkCell", NsPerOp: ns, Metrics: map[string]float64{metric: v}}
	}
	cases := []struct {
		name    string
		base    []Result
		fresh   []Result
		regress bool
	}{
		{"unchanged", []Result{base}, []Result{base}, false},
		{"faster and leaner", []Result{base}, []Result{cell(5e6, 200_000, 400)}, false},
		{"wall clock beyond bound", []Result{base}, []Result{cell(13e6, 1_000_000, 1000)}, true},
		{"wall clock within bound", []Result{base}, []Result{cell(12e6, 1_000_000, 1000)}, false},
		{"wall clock under noise floor", []Result{cell(100e3, 10, 1)}, []Result{cell(140e3, 10, 1)}, false},
		{"B/op within 5%", []Result{base}, []Result{cell(10e6, 1_049_000, 1000)}, false},
		{"B/op beyond 5%", []Result{base}, []Result{cell(10e6, 1_051_000, 1000)}, true},
		{"allocs/op beyond 5%", []Result{base}, []Result{cell(10e6, 1_000_000, 1051)}, true},
		{"allocs/op from zero", []Result{cell(10e6, 0, 0)}, []Result{cell(10e6, 0, 1)}, true},
		{"no alloc columns in baseline", []Result{{Name: "BenchmarkCell", NsPerOp: 10e6}}, []Result{cell(10e6, 5e6, 5000)}, false},
		{"new benchmark", []Result{base}, []Result{base, {Name: "BenchmarkNew", NsPerOp: 1}}, false},
		{"simulated column unchanged, wall clock faster", []Result{simCell(10e6, "sim-ms", 2.5)}, []Result{simCell(1e6, "sim-ms", 2.5)}, false},
		{"simulated column changed, wall clock faster", []Result{simCell(10e6, "sim-ms", 2.5)}, []Result{simCell(1e6, "sim-ms", 2.501)}, true},
		{"sim-edges/op changed", []Result{simCell(10e6, "sim-edges/op", 1000)}, []Result{simCell(10e6, "sim-edges/op", 999)}, true},
		{"faults changed", []Result{simCell(10e6, "faults", 16)}, []Result{simCell(10e6, "faults", 17)}, true},
		{"goodput changed", []Result{simCell(10e6, "goodput-rps", 800)}, []Result{simCell(10e6, "goodput-rps", 801)}, true},
		{"simulated column vanished", []Result{simCell(10e6, "miss-rate", 0)}, []Result{simCell(10e6, "other", 0)}, true},
		{"delivered edges not gated", []Result{simCell(10e6, "edges/op", 1000)}, []Result{simCell(10e6, "edges/op", 10)}, false},
		{"ns per sim-edge not gated", []Result{simCell(10e6, "ns/sim-edge", 10)}, []Result{simCell(10e6, "ns/sim-edge", 12)}, false},
		{"benchmark gone", []Result{base, {Name: "BenchmarkOld", NsPerOp: 1}}, []Result{base}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := compareReports(io.Discard, Report{Results: c.base}, Report{Results: c.fresh}, maxRegress, noiseFloor)
			if got != c.regress {
				t.Fatalf("compareReports = %v, want %v", got, c.regress)
			}
		})
	}

	// A -bench subset run is gated on the baseline rows its pattern selects.
	row := func(name string) Result { return Result{Name: name, NsPerOp: 10e6} }
	all := []Result{row("BenchmarkServe/fcfs"), row("BenchmarkServe/sjf"), row("BenchmarkFleet/po2"), row("BenchmarkFig3MotivatingExample")}
	subsets := []struct {
		name    string
		bench   string
		fresh   []Result
		regress bool
	}{
		{"subset run", "BenchmarkServe", all[:2], false},
		{"subset alternation", "Serve|Fig3", []Result{all[0], all[1], all[3]}, false},
		{"selected row vanished", "BenchmarkServe", all[:1], true},
		{"sibling of a selected sub-benchmark", "BenchmarkServe/fcfs", all[:1], true},
		{"pattern does not compile", "Serve(", all[:2], true},
		{"bench dot", ".", all[:2], true},
		{"bench dot, every row", ".", all, false},
	}
	for _, c := range subsets {
		t.Run("subset/"+c.name, func(t *testing.T) {
			got := compareReports(io.Discard, Report{Results: all}, Report{Bench: c.bench, Results: c.fresh}, maxRegress, noiseFloor)
			if got != c.regress {
				t.Fatalf("compareReports(-bench %q) = %v, want %v", c.bench, got, c.regress)
			}
		})
	}
}

// TestMergeRepetitions pins how -count > 1 folds repetitions: the fastest
// row's ns/op and other columns, the median B/op and allocs/op. Its first
// case is the fleet's non-repeatable allocation count: the fastest of
// three repetitions carries a +9.1% B/op outlier, which failed the 5% gate
// when the fastest row's counts were kept and passes on the median.
func TestMergeRepetitions(t *testing.T) {
	const maxRegress, noiseFloor = 0.25, 50_000
	row := func(name string, ns, bytes, allocs float64) Result {
		return Result{Name: name, NsPerOp: ns, Metrics: map[string]float64{"B/op": bytes, "allocs/op": allocs, "sim-edges/op": 7}}
	}
	const fleet = "BenchmarkFleet/random"
	base := Report{Results: []Result{row(fleet, 12e6, 961_536, 4437)}}
	cases := []struct {
		name    string
		rows    []Result
		want    []Result
		regress bool // compareReports of the merge against base
	}{
		{"outlier on the fastest row",
			[]Result{row(fleet, 10e6, 1_049_648, 4441), row(fleet, 11e6, 962_469, 4437), row(fleet, 12e6, 961_536, 4439)},
			[]Result{row(fleet, 10e6, 962_469, 4439)}, false},
		{"outlier in the median",
			[]Result{row(fleet, 10e6, 1_049_648, 4437), row(fleet, 11e6, 1_051_000, 4437), row(fleet, 12e6, 961_536, 4437)},
			[]Result{row(fleet, 10e6, 1_049_648, 4437)}, true},
		{"even count",
			[]Result{row(fleet, 13e6, 961_000, 4437), row(fleet, 10e6, 963_000, 4439)},
			[]Result{row(fleet, 10e6, 962_000, 4438)}, false},
		{"one repetition",
			[]Result{row(fleet, 10e6, 1_049_648, 4441)},
			[]Result{row(fleet, 10e6, 1_049_648, 4441)}, true},
		{"first-seen order",
			[]Result{row(fleet, 11e6, 961_536, 4437), row("BenchmarkNew", 1, 0, 0), row(fleet, 10e6, 961_536, 4437)},
			[]Result{row(fleet, 10e6, 961_536, 4437), row("BenchmarkNew", 1, 0, 0)}, false},
		{"no alloc columns",
			[]Result{{Name: fleet, NsPerOp: 11e6, Metrics: map[string]float64{"sim-edges/op": 7}}, {Name: fleet, NsPerOp: 10e6, Metrics: map[string]float64{"sim-edges/op": 7}}},
			[]Result{{Name: fleet, NsPerOp: 10e6, Metrics: map[string]float64{"sim-edges/op": 7}}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mergeRepetitions(c.rows)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("mergeRepetitions = %+v, want %+v", got, c.want)
			}
			if r := compareReports(io.Discard, base, Report{Results: got}, maxRegress, noiseFloor); r != c.regress {
				t.Fatalf("compareReports of the merge = %v, want %v", r, c.regress)
			}
		})
	}
}

// TestTestArgs pins the go test command line, with and without -profile.
func TestTestArgs(t *testing.T) {
	cases := []struct {
		name      string
		benchmem  bool
		count     int
		profile   string
		wantExtra []string
	}{
		{"plain", false, 1, "", nil},
		{"benchmem", true, 3, "", []string{"-benchmem"}},
		{"profile", true, 1, "prof", []string{"-benchmem",
			"-cpuprofile", "prof/cpu.pprof", "-memprofile", "prof/mem.pprof", "-o", "prof/repro.test"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := testArgs("Serve", "3x", c.count, c.benchmem, c.profile)
			want := []string{"test", "-run", "^$", "-bench", "Serve", "-benchtime", "3x", "-count", fmt.Sprint(c.count)}
			want = append(append(want, c.wantExtra...), ".")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("testArgs = %q, want %q", got, want)
			}
		})
	}
}
