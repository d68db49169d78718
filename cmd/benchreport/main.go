// Command benchreport runs the repository benchmarks and records both the
// host-side wall-clock cost and the simulated metrics of every benchmark to
// a JSON file, seeding the performance trajectory tracked across PRs.
//
// Usage:
//
//	go run ./cmd/benchreport [-bench regex] [-benchtime 3x] [-out BENCH_results.json]
//	    [-compare BENCH_results.json] [-max-regress 0.25]
//
// With -compare, the fresh results are diffed against a committed baseline
// file and the run fails (exit 1) when any benchmark's wall-clock ns/op
// regressed by more than -max-regress (a fraction; 0.25 = 25%), its B/op or
// allocs/op grew by more than 5%, or any simulated column (see
// exactMetric) differs from the baseline at all. CI uses this as the
// performance trend gate against the committed baseline.
//
// The tool shells out to `go test -bench` (so results match what developers
// measure by hand) and parses the standard benchmark output format:
//
//	BenchmarkFig9IDEA/VIM-32KB-8   10   6589589 ns/op   25.00 faults   17.36 sim-ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds every additional unit the benchmark reported, such as
	// the simulated execution time (sim-ms-*), fault counts and
	// latency-cycles, plus B/op and allocs/op when -benchmem is on.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of BENCH_results.json.
type Report struct {
	Generated string   `json:"generated"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "3x", "benchmark time passed to go test -benchtime")
	out := flag.String("out", "BENCH_results.json", "output JSON path")
	benchmem := flag.Bool("benchmem", true, "pass -benchmem")
	compare := flag.String("compare", "", "baseline JSON to diff against; exit 1 on wall-clock or allocation regression")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs -compare baseline")
	noiseFloor := flag.Float64("noise-floor-ns", 50_000, "absolute ns/op delta below which a wall-clock regression is ignored (micro-benchmark host jitter)")
	count := flag.Int("count", 1, "benchmark repetitions (go test -count); the per-benchmark minimum ns/op is kept, which damps host noise for the regression gate")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchtime", *benchtime, "-count", fmt.Sprint(*count)}
	if *benchmem {
		args = append(args, "-benchmem")
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: go test failed: %v\n%s", err, raw)
		os.Exit(1)
	}

	rep := Report{
		//lint:allow walltime report metadata: stamps when the host ran the benchmarks, never enters simulated output
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     *bench,
		Benchtime: *benchtime,
	}
	// With -count > 1 each benchmark appears several times; keep the
	// fastest repetition (the least noise-contaminated wall-clock sample)
	// while preserving first-seen order.
	index := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		r, ok := parseLine(line)
		if !ok {
			continue
		}
		if i, seen := index[r.Name]; seen {
			if r.NsPerOp < rep.Results[i].NsPerOp {
				rep.Results[i] = r
			}
			continue
		}
		index[r.Name] = len(rep.Results)
		rep.Results = append(rep.Results, r)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no benchmark lines matched %q\n", *bench)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: wrote %d results to %s\n", len(rep.Results), *out)

	if *compare != "" {
		if regressed := diffBaseline(rep, *compare, *maxRegress, *noiseFloor); regressed {
			os.Exit(1)
		}
	}
}

// allocRegress is the allowed fractional growth of a benchmark's B/op and
// allocs/op, the BENCHMARK.json bound for the allocation metrics. Unlike
// wall time these counts barely move between runs, so the bound is tight
// and needs no -count or noise floor.
const allocRegress = 0.05

// allocMetrics are the gated allocation columns -benchmem reports.
var allocMetrics = []string{"B/op", "allocs/op"}

// exactMetric reports whether a metric column is gated for exact equality
// with the baseline: the simulated results (sim-*: simulated times and the
// delivered + skipped edge count, which no host-side change may move),
// faults, Figure 7's latency-cycles, and the serving columns. They are a
// deterministic function of the code and its inputs, so any change is a
// behaviour change whatever the wall time. Delivered edges (edges/op) are
// reported but not gated: a faster scheduler delivers fewer.
func exactMetric(name string) bool {
	switch name {
	case "faults", "latency-cycles", "reconfigs", "miss-rate", "shed-rate", "goodput-rps":
		return true
	}
	return strings.HasPrefix(name, "sim-")
}

// diffBaseline loads the committed baseline at path and compares the fresh
// report against it; see compareReports. An unreadable baseline fails.
func diffBaseline(rep Report, path string, maxRegress, noiseFloor float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: read baseline: %v\n", err)
		return true
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: parse baseline: %v\n", err)
		return true
	}
	regressed := compareReports(os.Stdout, base, rep, maxRegress, noiseFloor)
	if regressed {
		fmt.Fprintf(os.Stderr, "benchreport: regression vs %s (wall clock beyond %.0f%%, allocation beyond %.0f%% or a simulated column changed)\n",
			path, maxRegress*100, allocRegress*100)
	}
	return regressed
}

// compareReports writes per-benchmark deltas of rep against base to w and
// returns true when any benchmark present in both regressed: wall-clock
// ns/op beyond maxRegress AND beyond the absolute noise floor
// (microsecond-scale benchmarks flap by large percentages on fixed host
// jitter that means nothing for the millisecond-scale cells the gate
// exists to protect), B/op or allocs/op beyond allocRegress, or a
// simulated column (exactMetric) changed or vanished. A baseline benchmark
// missing from rep also fails.
func compareReports(w io.Writer, base, rep Report, maxRegress, noiseFloor float64) bool {
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	fresh := make(map[string]bool, len(rep.Results))
	var floored []string
	regressed := false
	for _, r := range rep.Results {
		fresh[r.Name] = true
		b, ok := baseline[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(w, "  new      %-55s %12.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := r.NsPerOp/b.NsPerOp - 1
		mark := "ok  "
		if delta > maxRegress {
			if r.NsPerOp-b.NsPerOp > noiseFloor {
				mark = "FAIL"
				regressed = true
			} else {
				mark = "ok~ " // over the fraction but under the noise floor
				floored = append(floored, r.Name)
			}
		}
		fmt.Fprintf(w, "  %s %-55s %12.0f -> %12.0f ns/op (%+.1f%%)\n", mark, r.Name, b.NsPerOp, r.NsPerOp, delta*100)
		// Allocation columns: gated only when both runs measured them.
		for _, m := range allocMetrics {
			was, okB := b.Metrics[m]
			now, okR := r.Metrics[m]
			if !okB || !okR || now <= was*(1+allocRegress) {
				continue
			}
			fmt.Fprintf(w, "  FAIL %-55s %12.0f -> %12.0f %s (beyond %.0f%%)\n", "", was, now, m, allocRegress*100)
			regressed = true
		}
		// Simulated columns: exact, in sorted order for a stable log.
		names := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			if !exactMetric(m) {
				continue
			}
			was := b.Metrics[m]
			now, ok := r.Metrics[m]
			if !ok {
				fmt.Fprintf(w, "  FAIL %-55s %s missing from this run (simulated columns are gated exactly)\n", "", m)
				regressed = true
			} else if now != was {
				fmt.Fprintf(w, "  FAIL %-55s %12g -> %12g %s (simulated columns are gated exactly)\n", "", was, now, m)
				regressed = true
			}
		}
	}
	// Benchmarks the percentage gate skipped must not vanish silently from
	// CI logs: name every cell whose regression was excused by the
	// absolute noise floor.
	if len(floored) > 0 {
		fmt.Fprintf(w, "  note: %d benchmark(s) regressed beyond %.0f%% but under the %.0f µs noise floor (excused): %s\n",
			len(floored), maxRegress*100, noiseFloor/1000, strings.Join(floored, ", "))
	}
	// A baseline benchmark that no longer runs must not slip out of the
	// gate silently: removing or renaming one requires re-capturing the
	// baseline in the same change.
	for _, b := range base.Results {
		if !fresh[b.Name] {
			fmt.Fprintf(w, "  FAIL %-55s in baseline but missing from this run (re-capture the baseline)\n", b.Name)
			regressed = true
		}
	}
	return regressed
}

// parseLine decodes one "BenchmarkX-N iter value unit value unit..." line.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	name := f[0]
	// Trim the trailing -GOMAXPROCS suffix the harness appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iter, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iter, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		if f[i+1] == "ns/op" {
			r.NsPerOp = v
		} else {
			r.Metrics[f[i+1]] = v
		}
	}
	return r, true
}
