package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

// shortOptions runs a few ops per phase and one set-up.
var shortOptions = options{seconds: 0, minOps: 3, minTracedOps: 2, setups: 1}

// TestShortRun runs every workload briefly in both modes and checks the
// output contract: the JSON line carries exactly the mode's metrics with
// their catalogue units, and the human table prints every metric with its
// unit and sample count.
func TestShortRun(t *testing.T) {
	t.Chdir("..")
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := cli([]string{"--workload", w.name, "--trace", trace}, shortOptions, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v, want correct with no failures", res)
				}
				want, printed := endToEnd, append(append(append([]metric{}, endToEnd...), unbounded...), simulated[0])
				if trace == "1" {
					want, printed = perLayer, perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("JSON carries %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
						t.Errorf("JSON metric %s = %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
				for _, m := range printed {
					if !printedRow(lines, m) {
						t.Errorf("no printed row for %s with unit %s and a sample count", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// printedRow reports whether lines hold a table row "name value unit samples better".
func printedRow(lines []string, m metric) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == m.Name && f[2] == m.Unit && f[3] != "0" && f[4] == m.Better {
			return true
		}
	}
	return false
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "paper-cells", "--seed", "12x"},
		{"--workload", "paper-cells", "--trace", "2"},
		{"--workload", "paper-cells", "--seconds", "-1"},
		{"--workload", "paper-cells", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, shortOptions, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q printed %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: no error message", args)
		}
	}
}

// TestGateCatchesPerturbedGolden checks that the correctness gate passes on
// the pinned values and fails once any single one of them is nudged.
func TestGateCatchesPerturbedGolden(t *testing.T) {
	t.Chdir("..")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			g, err := readGolden(w.goldenFile)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.prepare(g, w.defaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := b.op(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkCells(g, out); err != nil {
				t.Fatalf("gate fails on the pinned values: %v", err)
			}
			for _, cell := range sortedKeys(out.cells) {
				for _, field := range sortedKeys(g.Cells[cell]) {
					v := g.Cells[cell][field]
					g.Cells[cell][field] = math.Nextafter(v, math.Inf(1))
					if checkCells(g, out) == nil {
						t.Errorf("gate passes with %s %s perturbed", cell, field)
					}
					g.Cells[cell][field] = v
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this command implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			metric
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var e2e []metric
	setupBound, maxBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %v, want %v", spec.PerLayer, perLayer)
	}
}

// TestLintClean holds this module to the repository's determinism
// contracts: every host-clock read carries a walltime allowance, all
// randomness derives from the seed argument, and no map iteration order
// reaches the output.
func TestLintClean(t *testing.T) {
	pkgs, err := load.New(".").Packages(true, "./...")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
