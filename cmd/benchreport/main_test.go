package main

import (
	"io"
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
}
