// Command perfbench is the repository benchmark. It runs one named workload
// against the public API in a closed loop with a single client, checks every
// op's outputs, and prints the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one, ending with one JSON line:
//
//	bash perfbench/run.sh --workload serve-overload --seed 1717 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and what it should move):
// paper-cells, serve-overload, fleet-affinity, or all of them in turn.
// Inputs come from --seed, generated once per set-up; the default seed of
// each workload reproduces its pinned golden cells, which every run also
// re-checks during set-up. Host times are reported in reference-host time,
// scaled by a calibration probe run next to each op (see probe).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

const (
	// maxProcs caps GOMAXPROCS so the fleet's per-board goroutines meet the
	// same parallelism on every host: the only concurrency in a run.
	maxProcs = 2
	// maxMeasure stops a measured phase that cannot reach its op count, so
	// a run always ends well inside its time limit.
	maxMeasure = 120 * time.Second
	// maxFailures stops a measured phase early once the program is clearly
	// broken; the run still reports what it attempted.
	maxFailures = 10
)

// options is one run's configuration. The op counts and set-up repetitions
// are fixed by the command line; the self-test lowers them.
type options struct {
	seed    int64
	seedSet bool
	seconds float64
	trace   bool

	minOps       int // untraced ops per run, so the p90 has >= 10 samples beyond it
	minTracedOps int // ops per phase of a traced run
	setups       int // set-ups per run; setup_s is their median
}

var defaultOptions = options{seconds: 10, minOps: 100, minTracedOps: 20, setups: 9}

func main() {
	os.Exit(cli(os.Args[1:], defaultOptions, os.Stdout, os.Stderr))
}

// cli parses args and runs the selected workloads, returning the exit code:
// 0 when every op verified, 1 on a failed check or run error, 2 on a usage
// error.
func cli(args []string, o options, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: paper-cells, serve-overload, fleet-affinity or all")
	fs.Int64Var(&o.seed, "seed", 0, "input seed (default: the workload's pinned seed)")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "measured host seconds per run")
	trace := fs.Int("trace", 0, "1 for a traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	usage := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *trace != 0 && *trace != 1:
		return usage(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	case o.seconds < 0:
		return usage(fmt.Errorf("--seconds must be non-negative, got %g", o.seconds))
	}
	o.trace = *trace == 1
	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return usage(err)
		}
		selected = []workload{w}
	}
	code := 0
	for _, w := range selected {
		ok, err := run(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// result is the JSON line that ends a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's state.
type runner struct {
	w         workload
	o         options
	seed      int64
	out       io.Writer
	probe     *probe
	ref       *outcome // the first set-up's warm-up op, which every later op must reproduce
	gated     []string // the pinned cells the correctness gate compared
	setups    []setUpTime
	attempted int
	failed    int
}

// run executes one workload: set-ups and one measured phase (untraced), or
// two (traced: untraced, then traced). It reports whether every op
// verified; an error means the run could not proceed at all.
func run(w workload, o options, stdout io.Writer) (bool, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	r := &runner{w: w, o: o, seed: w.defaultSeed, out: stdout, probe: newProbe()}
	if o.seedSet {
		r.seed = o.seed
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%t loop=closed clients=1 gomaxprocs=%d\n",
		w.name, r.seed, o.trace, runtime.GOMAXPROCS(0))

	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var b bench
	for len(r.setups) < o.setups {
		var err error
		if b, err = r.setUp(tr); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(stdout, "set-up: %d runs, pinned cells %s reproduced at seed %d\n",
		len(r.setups), strings.Join(r.gated, ", "), w.defaultSeed)
	res := result{Metrics: map[string]value{}}
	if !o.trace {
		outs, err := r.measure(b, nil, o.minOps, o.seconds)
		if err != nil {
			return false, err
		}
		rows := r.endToEnd(outs)
		printRows(stdout, rows)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = rows[m.Name].value
		}
	} else {
		plain, err := r.measure(b, nil, o.minTracedOps, o.seconds/2)
		if err != nil {
			return false, err
		}
		traced, err := r.measure(b, tr, o.minTracedOps, o.seconds/2)
		if err != nil {
			return false, err
		}
		path := fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.json", w.name, r.seed)
		t0 := now()
		if err := tr.write(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		write := now() - t0
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
		rows := r.perLayer(plain, traced, tr, write)
		printRows(stdout, rows)
		for _, m := range perLayer {
			res.Metrics[m.Name] = rows[m.Name].value
		}
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return res.Correct, nil
}

// setUpTime is one set-up's host time, as measured and scaled to the
// reference host.
type setUpTime struct {
	wall, ref float64 // seconds
}

// setUp loads the pinned values, runs the correctness gate at the default
// seed, generates the inputs of the run's seed and runs one warm-up op on
// them. It returns the inputs and records its own duration.
func (r *runner) setUp(tr *tracer) (bench, error) {
	scale := r.probe.scale()
	t0 := now()
	g, err := readGolden(r.w.goldenFile)
	if err != nil {
		return nil, err
	}
	gate, err := r.w.prepare(g, r.w.defaultSeed, nil)
	if err != nil {
		return nil, err
	}
	r.attempted++
	out, err := gate.op(nil)
	if err == nil {
		err = checkCells(g, out)
	}
	if err != nil {
		r.failed++
		return nil, fmt.Errorf("correctness gate at seed %d: %w", r.w.defaultSeed, err)
	}
	if tr != nil {
		tr.op = -1 - len(r.setups)
	}
	b, err := r.w.prepare(g, r.seed, tr)
	if err != nil {
		return nil, err
	}
	r.attempted++
	warm, err := b.op(nil)
	if err == nil && r.ref != nil && warm.digest != r.ref.digest {
		err = errors.New("simulated results differ between set-ups")
	}
	if err != nil {
		r.failed++
		return nil, fmt.Errorf("warm-up op at seed %d: %w", r.seed, err)
	}
	if r.ref == nil {
		r.ref = warm
	}
	r.gated = sortedKeys(out.cells)
	wall := (now() - t0).Seconds()
	r.setups = append(r.setups, setUpTime{wall, wall * scale})
	return b, nil
}

// checkCells holds every pinned cell an op produced to its golden values.
func checkCells(g *golden, out *outcome) error {
	for _, name := range sortedKeys(out.cells) {
		want, err := g.cell(name)
		if err != nil {
			return err
		}
		if err := checkPinned(name, out.cells[name], want); err != nil {
			return err
		}
	}
	return nil
}

// measure runs ops on b (traced when tr is set) back to back until at least
// minOps have verified and seconds have passed, and returns the verified
// ones. The calibration probe runs before each op. An op fails when it
// errors, its outputs do not verify, or its simulated results differ from
// the first set-up's.
func (r *runner) measure(b bench, tr *tracer, minOps int, seconds float64) ([]*outcome, error) {
	var outs []*outcome
	fails := 0
	t0 := now()
	for len(outs) < minOps || (now()-t0).Seconds() < seconds {
		if now()-t0 > maxMeasure || fails >= maxFailures {
			break
		}
		id := r.attempted
		if tr != nil {
			tr.op = id
		}
		r.attempted++
		scale := r.probe.scale()
		out, err := b.op(tr)
		if err == nil && out.digest != r.ref.digest {
			err = errors.New("simulated results differ from the set-up op's")
		}
		if err != nil {
			r.failed++
			fails++
			fmt.Fprintf(r.out, "op %d failed: %v\n", id, err)
			continue
		}
		out.id, out.scale = id, scale
		out.cells, out.sim = nil, nil // every op repeats the set-up's; keep memory to the op's own
		outs = append(outs, out)
	}
	if len(outs) == 0 {
		return nil, errors.New("no op verified")
	}
	return outs, nil
}

// row is one printed metric with its sample count.
type row struct {
	value
	samples int
	better  string
}

// quantile returns the nearest-rank p-quantile of vals, sorting them in
// place.
func quantile(vals []float64, p float64) float64 {
	sort.Float64s(vals)
	return stats.NearestRank(vals, p)
}

// hostMs collects each outcome's host time, of its timed part or of its
// simulating calls, scaled to the reference host (ref) or as measured.
func hostMs(outs []*outcome, simCall, ref bool) []float64 {
	vals := make([]float64, 0, len(outs))
	for _, o := range outs {
		d := o.host
		if simCall {
			d = o.simCall
		}
		v := ms(d)
		if ref {
			v *= o.scale
		}
		vals = append(vals, v)
	}
	return vals
}

// endToEnd computes the untraced run's metrics: the bounded ones, in
// reference-host time where they are times, then the same times as
// measured, the host speed, the failure ratio and the simulated metrics,
// which it prints without bounding.
func (r *runner) endToEnd(outs []*outcome) map[string]row {
	n := len(outs)
	var bytes, allocs uint64
	var scales []float64
	for _, o := range outs {
		bytes += o.allocBytes
		allocs += o.allocs
		scales = append(scales, o.scale)
	}
	var setupRef, setupWall []float64
	for _, s := range r.setups {
		setupRef = append(setupRef, s.ref)
		setupWall = append(setupWall, s.wall)
	}
	sum := func(vals []float64) (t float64) {
		for _, v := range vals {
			t += v
		}
		return t
	}
	ref, wall := hostMs(outs, false, true), hostMs(outs, false, false)
	jobs := float64(r.w.jobsPerOp*n) * 1e3
	vals := map[string]float64{
		"jobs_per_s":      jobs / sum(ref),
		"op_ms_p50":       quantile(ref, 0.5),
		"op_ms_p90":       quantile(ref, 0.9),
		"alloc_mb_per_op": float64(bytes) / 1e6 / float64(n),
		"allocs_per_op":   float64(allocs) / float64(n),
		"max_rss_mb":      maxRSSMB(),
		"setup_s":         quantile(setupRef, 0.5),
		"wall_jobs_per_s": jobs / sum(wall),
		"wall_op_ms_p50":  quantile(wall, 0.5),
		"wall_op_ms_p90":  quantile(wall, 0.9),
		"wall_setup_s":    quantile(setupWall, 0.5),
		"host_slowdown":   1 / quantile(scales, 0.5),
		"op_fail_ratio":   ratio(float64(r.failed), float64(r.attempted)),
	}
	samples := map[string]int{"max_rss_mb": 1, "setup_s": len(r.setups), "wall_setup_s": len(r.setups), "op_fail_ratio": r.attempted}
	rows := map[string]row{}
	for _, m := range append(append([]metric{}, endToEnd...), unbounded...) {
		s, ok := samples[m.Name]
		if !ok {
			s = n
		}
		rows[m.Name] = row{value{vals[m.Name], m.Unit}, s, m.Better}
	}
	for _, m := range simulated {
		if v, ok := r.ref.sim[m.Name]; ok {
			rows[m.Name] = row{value{v, m.Unit}, n, m.Better}
		}
	}
	return rows
}

// perLayer computes the traced run's metrics. Each is the median over
// traced ops of the op's value: for host times the layer's self time (a
// span named like the metric without its _ms suffix) or the time the op
// measured, in reference-host time; otherwise the count the op read from
// the layer's reports, engine and meter, which repeats exactly. Ratios that combine the untraced and traced phases are
// derived last, from each phase's median.
func (r *runner) perLayer(plain, traced []*outcome, tr *tracer, write time.Duration) map[string]row {
	self := tr.selfTimes()
	perOp := func(name, unit string) float64 {
		vals := make([]float64, 0, len(traced))
		for _, o := range traced {
			v, ok := o.layer[name]
			switch {
			case !ok:
				v = ms(self[o.id][strings.TrimSuffix(name, "_ms")]) * o.scale
			case unit == "ms" || unit == "us":
				v *= o.scale
			}
			vals = append(vals, v)
		}
		return quantile(vals, 0.5)
	}
	host := func(outs []*outcome, simCall bool) float64 {
		return quantile(hostMs(outs, simCall, true), 0.5)
	}

	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.Name] = perOp(m.Name, m.Unit)
	}
	for _, m := range simulated {
		vals[m.Name] = r.ref.sim[m.Name]
	}
	var stream []float64
	for i, s := range r.setups {
		stream = append(stream, ms(self[-1-i]["traffic.stream"])*s.ref/s.wall)
	}
	vals["traffic.stream_ms"] = quantile(stream, 0.5)

	edges := vals["sim.edges_delivered"]
	vals["sim.skip_ratio"] = ratio(vals["sim.edges_skipped"], edges+vals["sim.edges_skipped"])
	vals["sim.host_ns_per_edge"] = ratio(host(plain, true)*1e6, edges)
	vals["sw.host_ns_per_cpu_cycle"] = ratio(vals["sw.run_ms"]*1e6, perOp("sw.cpu_cycles", "cycles"))
	vals["telemetry.overhead_ratio"] = host(traced, false)/host(plain, false) - 1
	vals["telemetry.export_ms"] += ms(write) / float64(len(traced))
	if rec := perOp("scenario.record_ms", "ms"); rec > 0 {
		vals["scenario.record_overhead_ratio"] = rec/host(plain, true) - 1
	}

	rows := map[string]row{}
	for _, m := range perLayer {
		rows[m.Name] = row{value{vals[m.Name], m.Unit}, len(traced), m.Better}
	}
	return rows
}

// printRows prints every metric with its unit and sample count, in name
// order.
func printRows(w io.Writer, rows map[string]row) {
	fmt.Fprintf(w, "%-34s %16s  %-8s %8s  %s\n", "metric", "value", "unit", "samples", "better")
	for _, name := range sortedKeys(rows) {
		r := rows[name]
		fmt.Fprintf(w, "%-34s %16.6g  %-8s %8d  %s\n", name, r.Value, r.Unit, r.samples, r.better)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
