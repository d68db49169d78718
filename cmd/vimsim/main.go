// Command vimsim runs one application on the simulated reconfigurable SoC
// and prints the measured report — the command-line counterpart of the
// paper's measurement runs.
//
// Examples:
//
//	vimsim -app idea -size 32768
//	vimsim -app adpcm -size 8192 -policy lru -prefetch 1
//	vimsim -app vecadd -size 4096 -board EPXA4 -pipelined
//	vimsim -app idea -size 16384 -mode normal      # no-OS baseline
//	vimsim -app vecadd -size 16384 -mode chunked   # hand-chunked baseline
//	vimsim -app idea -size 16384 -mode sw          # pure software
//	vimsim -mode multi -board EPXA4 -split 4       # concurrent IDEA+ADPCM
//	vimsim -mode multi -arb global-lru             # ... with frame stealing
//	vimsim -mode serve -slots 2 -policy affinity   # serve a 24-job stream
//	vimsim -mode serve -jobs 32 -seed 7 -bw 250000 # ... slow config port
//	vimsim -mode serve -policy slack -stage        # deadline-aware + pre-staging
//	vimsim -mode serve -policy edf -budget 0.5     # tight service-level budgets
//	vimsim -mode saturate -rps 2000                # open-loop Poisson stream
//	vimsim -mode saturate -rps 2000 -admit reject  # ... shedding late jobs
//	vimsim -mode saturate -arrival bursty -rps 800 # on/off burst arrivals
//	vimsim -mode saturate -ramp                    # sweep RPS to the knee
//	vimsim -mode fleet -boards 4 -rps 6400         # dispatch across 4 boards
//	vimsim -mode fleet -dispatch affinity -admit reject
//	vimsim -mode fleet -boards 8 -dispatch po2 -ramp
//	vimsim -mode record -as serve -scenario run.json -policy affinity
//	vimsim -mode record -as fleet -scenario f.json -boards 4 -rps 6400
//	vimsim -mode replay -scenario run.json         # re-execute and match
//	vimsim -mode replay -scenario testdata/scenarios -format junit
//	vimsim -mode serve -metrics-out run.prom       # Prometheus-style metrics
//	vimsim -mode fleet -boards 4 -trace-out f.json # Perfetto-loadable trace
//	vimsim -mode saturate -metrics-out m.json -sample-ps 1e9  # sampled series
//	vimsim -mode fleet -boards 4 -cpuprofile cpu.out # host CPU profile (go tool pprof)
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/platform"
	"repro/internal/rcsched"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// options is the parsed command line.
type options struct {
	app, board, policy, mode, arb, arrival, admit, dispatch string
	scenario, as, match, format, junit, vcd, cpuprofile     string
	size, split, slots, jobs, boards, prefetch              int
	bw, gap, budget, rps, tolerance                         float64
	stage, ramp, pipelined, bounce                          bool
	seed                                                    int64
	tele                                                    telemetryFlags

	set map[string]bool // the flags given explicitly
	srv *serving        // serve, saturate, fleet and record: the run to execute
}

// register defines every vimsim flag on fs, bound to a fresh options.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.app, "app", "idea", "application: vecadd | adpcm | idea")
	fs.IntVar(&o.size, "size", 16384, "input size in bytes (vecadd: per-vector bytes)")
	fs.StringVar(&o.board, "board", "EPXA1", "board: EPXA1 | EPXA4 | EPXA10")
	fs.StringVar(&o.policy, "policy", "fifo", "replacement policy: fifo | lru | clock | random; serve mode: scheduling policy: fcfs | sjf | affinity | edf | slack")
	fs.StringVar(&o.mode, "mode", "vim", "execution mode: vim | normal | chunked | sw | multi | serve | saturate | fleet | record | replay")
	fs.StringVar(&o.arb, "arb", "static", "multi mode: inter-session arbitration: static | global-lru")
	fs.IntVar(&o.split, "split", 0, "multi mode: page frames for the IDEA session (0 = half the pool)")
	fs.IntVar(&o.slots, "slots", 2, "serve mode: reconfigurable shell slots")
	fs.IntVar(&o.jobs, "jobs", 24, "serve mode: jobs in the generated multi-user stream")
	fs.Float64Var(&o.bw, "bw", 0, "serve mode: configuration-port bandwidth, bytes/s (0 = default)")
	fs.Float64Var(&o.gap, "gap", 0.15, "serve mode: mean arrival gap in ms")
	fs.BoolVar(&o.stage, "stage", false, "serve mode: pre-stage the next bitstream while slots execute")
	fs.Float64Var(&o.budget, "budget", rcsched.DefaultBudgetFactor, "serve/saturate mode: service-level budget factor scaling every job's deadline (saturate: 0 strips deadlines)")
	fs.Float64Var(&o.rps, "rps", 800, "saturate mode: offered arrival rate, jobs/s")
	fs.StringVar(&o.arrival, "arrival", "poisson", "saturate mode: arrival process: uniform | poisson | bursty")
	fs.StringVar(&o.admit, "admit", "off", "saturate mode: admission control: off | reject | degrade")
	fs.BoolVar(&o.ramp, "ramp", false, "saturate/fleet mode: sweep offered RPS up a linear ramp to the saturation knee instead of serving one rate")
	fs.IntVar(&o.boards, "boards", 4, "fleet mode: independent boards behind the dispatcher")
	fs.StringVar(&o.dispatch, "dispatch", "least-loaded", "fleet mode: dispatch policy: random | least-loaded | affinity | po2")
	fs.StringVar(&o.scenario, "scenario", "", "record mode: scenario file to write; replay mode: scenario file or directory to replay")
	fs.StringVar(&o.as, "as", "serve", "record mode: which serving run to record: serve | saturate | fleet")
	fs.StringVar(&o.match, "match", "", "record mode: match mode stored in the scenario; replay mode: override the file's mode: strict | metrics")
	fs.Float64Var(&o.tolerance, "tolerance", 0, "record mode: metrics-match relative tolerance stored in the scenario (0 = default)")
	fs.StringVar(&o.format, "format", "text", "replay mode: result format on stdout: text | json | junit")
	fs.StringVar(&o.junit, "junit", "", "replay mode: also write a JUnit XML report to this path")
	fs.StringVar(&o.tele.metricsOut, "metrics-out", "", "serving modes: write the run's metrics to this path (.json suffix = JSON dump, else Prometheus text)")
	fs.StringVar(&o.tele.traceOut, "trace-out", "", "serving modes: write the run's Chrome trace-event JSON (Perfetto-loadable) to this path")
	fs.Float64Var(&o.tele.samplePs, "sample-ps", 0, "serving modes: simulated-time gauge sampling interval in picoseconds (0 = no time series; needs -metrics-out)")
	fs.BoolVar(&o.pipelined, "pipelined", false, "use the pipelined IMU")
	fs.BoolVar(&o.bounce, "bounce", false, "use the double-transfer (bounce buffer) page path")
	fs.IntVar(&o.prefetch, "prefetch", 0, "sequential prefetch pages per fault")
	fs.Int64Var(&o.seed, "seed", 1, "input data seed; serve mode: trace seed")
	fs.StringVar(&o.vcd, "vcd", "", "write a session waveform (VCD) to this path (vim mode only)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a host CPU profile of the whole run to this path (go tool pprof)")
	return o
}

// flagModes is the one table of which modes take which flag (-mode itself
// applies everywhere). A flag set explicitly for a mode outside its list
// is an error, never silently ignored. Record takes a serving flag only
// when the mode it records (-as) does, and never -ramp.
var flagModes = map[string]string{
	"app":         "vim normal chunked sw",
	"size":        "vim normal chunked sw multi",
	"board":       "vim normal chunked sw multi serve saturate fleet record",
	"seed":        "vim normal chunked sw multi serve saturate fleet record",
	"policy":      "vim serve saturate fleet record",
	"pipelined":   "vim",
	"bounce":      "vim",
	"prefetch":    "vim",
	"vcd":         "vim",
	"arb":         "multi",
	"split":       "multi",
	"slots":       "serve saturate fleet record",
	"jobs":        "serve saturate fleet record",
	"bw":          "serve saturate fleet record",
	"stage":       "serve saturate fleet record",
	"budget":      "serve saturate fleet record",
	"gap":         "serve record",
	"rps":         "saturate fleet record",
	"arrival":     "saturate fleet record",
	"admit":       "saturate fleet record",
	"ramp":        "saturate fleet",
	"boards":      "fleet record",
	"dispatch":    "fleet record",
	"scenario":    "record replay",
	"as":          "record",
	"match":       "record replay",
	"tolerance":   "record",
	"format":      "replay",
	"junit":       "replay",
	"metrics-out": "serve saturate fleet record replay",
	"trace-out":   "serve saturate fleet record replay",
	"sample-ps":   "serve saturate fleet record replay",
	"cpuprofile":  "vim normal chunked sw multi serve saturate fleet record replay",
}

func isServing(mode string) bool { return mode == "serve" || mode == "saturate" || mode == "fleet" }

// accepts reports whether mode (recording the -as mode, for record) takes
// the named flag.
func accepts(name, mode, as string) bool {
	modes := strings.Fields(flagModes[name])
	if !slices.Contains(modes, mode) {
		return false
	}
	if mode == "record" && slices.ContainsFunc(modes, isServing) {
		return slices.Contains(modes, as)
	}
	return true
}

// reject is the one-line error for a flag the mode does not take.
func (o *options) reject(name string) error {
	if o.mode == "record" {
		return fmt.Errorf("mode record -as %s does not support -%s (record takes the flags of mode %s except -ramp: a scenario pins exactly one run)",
			o.as, name, o.as)
	}
	modes := strings.Fields(flagModes[name])
	list := strings.Join(modes[:len(modes)-1], ", ")
	if list != "" {
		list += " or "
	}
	return fmt.Errorf("mode %s does not support -%s (it applies to -mode %s)", o.mode, name, list+modes[len(modes)-1])
}

// parseArgs parses and validates the command line before any simulation
// work starts; every rejection is a one-line error naming the offending
// flag (main turns it into a non-zero exit).
func parseArgs(fs *flag.FlagSet, args []string) (*options, error) {
	o := register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch o.mode {
	case "vim", "normal", "chunked", "sw", "multi", "serve", "saturate", "fleet", "replay":
	case "record":
		if !isServing(o.as) {
			return nil, fmt.Errorf("record: unknown -as %q (want serve, saturate or fleet)", o.as)
		}
	default:
		return nil, fmt.Errorf("unknown mode %q", o.mode)
	}
	o.set = map[string]bool{}
	var err error
	fs.Visit(func(f *flag.Flag) {
		o.set[f.Name] = true
		if err == nil && f.Name != "mode" && !accepts(f.Name, o.mode, o.as) {
			err = o.reject(f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	switch o.mode {
	case "serve", "saturate", "fleet":
		o.srv, err = newServing(o, o.mode)
	case "record":
		if err = validateRecord(o.scenario, o.match, o.tolerance); err == nil {
			o.srv, err = newServing(o, o.as)
		}
	case "replay":
		if err = validateReplay(o.scenario, o.match, o.format); err == nil {
			err = o.tele.validate(false)
		}
	}
	return o, err
}

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	code, err := profiled(o.cpuprofile, func() (int, error) { return execute(o) })
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(code)
}

// execute runs a parsed command line and returns the process exit code.
func execute(o *options) (int, error) {
	switch o.mode {
	case "serve", "saturate", "fleet":
		return 0, o.srv.run()
	case "record":
		return 0, o.srv.writeScenario(o.scenario, scenario.Match{Mode: o.match, Tolerance: o.tolerance})
	case "replay":
		ok, err := runReplay(o.scenario, o.match, o.format, o.junit, o.tele)
		if err == nil && !ok {
			return 1, nil
		}
		return 0, err
	case "multi":
		return 0, runMulti(o.board, o.arb, o.split, o.size, o.seed)
	}
	rep, rec, err := o.run()
	if errors.Is(err, baseline.ErrExceedsMemory) {
		fmt.Printf("%s %d bytes in %q mode: exceeds available memory (the paper's Figure 9 annotation)\n",
			o.app, o.size, o.mode)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	printReport(rep)
	return 0, writeVCD(o.vcd, rec)
}

// profiled runs f under a host CPU profile written to path (pprof's
// gzip-framed format; none when path is empty) and stops the profile
// before returning f's results.
func profiled(path string, f func() (int, error)) (int, error) {
	if path == "" {
		return f()
	}
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return 0, err
	}
	code, err := f()
	pprof.StopCPUProfile()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return code, err
}

// run executes the single run (vim, normal, chunked or sw) the options
// describe. With -vcd it records the session waveform, returned with the
// report.
func (o *options) run() (*core.Report, *trace.Recorder, error) {
	cfg := repro.Config{
		Board:         o.board,
		Policy:        o.policy,
		PipelinedIMU:  o.pipelined,
		BounceBuffer:  o.bounce,
		PrefetchPages: o.prefetch,
		Seed:          o.seed,
	}
	var rec *trace.Recorder
	var loaded func(*repro.Process) error
	if o.vcd != "" {
		loaded = func(p *repro.Process) (err error) {
			rec, err = p.Session().TraceSession()
			return err
		}
	}
	rep, err := exp.Run(cfg, o.app, o.mode, o.size, o.seed, loaded)
	return rep, rec, err
}

// runMulti runs the multi-coprocessor sessions gang: IDEA (size bytes) and
// ADPCM (size/2 bytes) concurrently behind one VIM, and prints the shared
// and per-session report.
func runMulti(board, arb string, split, size int, seed int64) error {
	spec, ok := platform.SpecByName(board)
	if !ok {
		return fmt.Errorf("unknown board %q", board)
	}
	pages := spec.DPBytes >> spec.PageLog
	if split == 0 {
		split = pages / 2
	}
	if split < 2 || split > pages-2 {
		return fmt.Errorf("split %d out of range [2,%d] on %s", split, pages-2, board)
	}
	size = size &^ 7
	rep, err := exp.SessionsGang(board, arb, split, size, size/2, seed)
	if err != nil {
		return err
	}
	fmt.Printf("mode        multi-session (concurrent %s)\n", rep.App)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("arbitration %s\n", rep.Policy)
	fmt.Printf("imu         %s\n", rep.IMUMode)
	fmt.Printf("total       %.3f ms\n", rep.TotalMs())
	fmt.Printf("  HW        %.3f ms\n", rep.HWPs/1e9)
	fmt.Printf("  SW(DP)    %.3f ms\n", rep.SWDPPs/1e9)
	fmt.Printf("  SW(IMU)   %.3f ms\n", rep.SWIMUPs/1e9)
	fmt.Printf("  SW(OS)    %.3f ms\n", rep.SWOSPs/1e9)
	fmt.Printf("hw cycles   %d (IMU clock)\n", rep.HWCy)
	fmt.Printf("steals      %d\n", rep.VIM.Steals)
	for i, s := range rep.Sessions {
		fmt.Printf("session %d   %s (policy %s): done %.3f ms, %d faults, %d evictions, %d steals, %d pages loaded\n",
			i, s.App, s.Policy, s.DonePs/1e9, s.VIM.Faults, s.VIM.Evictions, s.VIM.Steals, s.VIM.PagesLoaded)
	}
	return nil
}

// writeVCD writes the recorded waveform to path (nothing when path is
// empty).
func writeVCD(path string, rec *trace.Recorder) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteVCD(f, rec); err != nil {
		return err
	}
	fmt.Printf("waveform     %s\n", path)
	return nil
}

func printReport(r *core.Report) {
	fmt.Printf("app         %s\n", r.App)
	fmt.Printf("board       %s\n", r.Board)
	if r.PurePs > 0 {
		fmt.Printf("mode        pure software\n")
		fmt.Printf("total       %.3f ms\n", r.TotalMs())
		return
	}
	fmt.Printf("policy      %s\n", r.Policy)
	fmt.Printf("imu         %s\n", r.IMUMode)
	fmt.Printf("total       %.3f ms\n", r.TotalMs())
	fmt.Printf("  HW        %.3f ms\n", r.HWPs/1e9)
	fmt.Printf("  SW(DP)    %.3f ms\n", r.SWDPPs/1e9)
	fmt.Printf("  SW(IMU)   %.3f ms\n", r.SWIMUPs/1e9)
	fmt.Printf("  SW(OS)    %.3f ms\n", r.SWOSPs/1e9)
	if r.ConfigPs > 0 {
		fmt.Printf("config      %.3f ms (FPGA_LOAD, excluded from total)\n", r.ConfigPs/1e9)
	}
	fmt.Printf("faults      %d\n", r.VIM.Faults)
	fmt.Printf("evictions   %d (writebacks %d)\n", r.VIM.Evictions, r.VIM.Writebacks)
	fmt.Printf("pages       %d loaded, %d flushed, %d load-elided, %d prefetched\n",
		r.VIM.PagesLoaded, r.VIM.PagesFlushed, r.VIM.LoadsElided, r.VIM.Prefetches)
	fmt.Printf("bytes       %d in, %d out\n", r.VIM.BytesIn, r.VIM.BytesOut)
	fmt.Printf("tlb         %d accesses, %d hits, %d faults\n",
		r.IMU.Accesses, r.IMU.Hits, r.IMU.Faults)
	fmt.Printf("hw cycles   %d (IMU clock)\n", r.HWCy)
}
