package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestValidateSaturateFlags sweeps the saturate-mode flag validation: every
// degenerate combination must come back as an error (main turns it into a
// non-zero exit) whose single line carries a usage hint naming the flag,
// and every legal combination must pass. The rate, arrival-process and
// admission checks are the libraries' own (traffic.Spec.Validate,
// rcsched.Config.Resolve), attributed to the flag that set the field.
func TestValidateSaturateFlags(t *testing.T) {
	type flags struct {
		rps     float64
		arrival string
		admit   string
		budget  float64
		jobs    int
	}
	ok := flags{rps: 800, arrival: "poisson", admit: "off", budget: 1, jobs: 24}
	cases := []struct {
		name string
		f    flags
		hint string // empty = must be accepted; otherwise the error must contain it
	}{
		{"defaults", ok, ""},
		{"uniform arrivals", flags{800, "uniform", "off", 1, 24}, ""},
		{"bursty arrivals", flags{800, "bursty", "off", 1, 24}, ""},
		{"admit reject", flags{800, "poisson", "reject", 1, 24}, ""},
		{"admit degrade", flags{800, "poisson", "degrade", 1, 24}, ""},
		{"admit empty alias", flags{800, "poisson", "", 1, 24}, ""},
		{"no deadlines", flags{800, "poisson", "off", 0, 24}, ""},
		{"zero rps", flags{0, "poisson", "off", 1, 24}, "-rps: traffic: poisson process needs a positive rate"},
		{"negative rps", flags{-50, "poisson", "off", 1, 24}, "-rps: traffic: poisson process needs a positive rate"},
		{"unknown arrival", flags{800, "diurnal-ish", "off", 1, 24}, "-arrival: traffic: unknown arrival process"},
		{"unknown admit", flags{800, "poisson", "shed", 1, 24}, "-admit: rcsched: unknown admission mode"},
		{"admit without deadlines", flags{800, "poisson", "reject", 0, 24}, "set -budget > 0"},
		{"degrade without deadlines", flags{800, "poisson", "degrade", 0, 24}, "set -budget > 0"},
		{"negative budget", flags{800, "poisson", "off", -1, 24}, "-budget must be non-negative"},
		{"zero jobs", flags{800, "poisson", "off", 1, 0}, "-jobs must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(t, "-mode", "saturate", "-rps", fmt.Sprint(c.f.rps), "-arrival", c.f.arrival,
				"-admit", c.f.admit, "-budget", fmt.Sprint(c.f.budget), "-jobs", fmt.Sprint(c.f.jobs))
			checkHint(t, err, c.hint)
		})
	}
}

// parse runs the command-line parser and validator on args.
func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("vimsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// checkHint asserts the shared contract of all flag validators: legal flag
// sets pass, degenerate ones come back as a single-line error carrying the
// usage hint (main turns it into a non-zero exit).
func checkHint(t *testing.T, err error, hint string) {
	t.Helper()
	if hint == "" {
		if err != nil {
			t.Fatalf("legal flags rejected: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatal("degenerate flags accepted")
	}
	if !strings.Contains(err.Error(), hint) {
		t.Fatalf("error %q does not carry the usage hint %q", err, hint)
	}
	if strings.Contains(err.Error(), "\n") {
		t.Fatalf("error %q spans multiple lines; the hint must be one line", err)
	}
}

// TestValidateRecordFlags sweeps the record-mode flag validation.
func TestValidateRecordFlags(t *testing.T) {
	type flags struct {
		as        string
		scenario  string
		match     string
		tolerance float64
		ramp      bool
	}
	cases := []struct {
		name string
		f    flags
		hint string
	}{
		{"serve defaults", flags{"serve", "run.json", "", 0, false}, ""},
		{"saturate", flags{"saturate", "run.json", "", 0, false}, ""},
		{"fleet", flags{"fleet", "run.json", "", 0, false}, ""},
		{"strict explicit", flags{"serve", "run.json", "strict", 0, false}, ""},
		{"metrics with tolerance", flags{"serve", "run.json", "metrics", 0.05, false}, ""},
		{"metrics default tolerance", flags{"serve", "run.json", "metrics", 0, false}, ""},
		{"no output file", flags{"serve", "", "", 0, false}, "-scenario must name the output file"},
		{"unknown as", flags{"bench", "run.json", "", 0, false}, "unknown -as"},
		{"unknown match", flags{"serve", "run.json", "fuzzy", 0, false}, "unknown -match"},
		{"negative tolerance", flags{"serve", "run.json", "metrics", -0.1, false}, "-tolerance must be non-negative"},
		{"tolerance without metrics", flags{"serve", "run.json", "", 0.05, false}, "-tolerance only applies with -match metrics"},
		{"tolerance with strict", flags{"serve", "run.json", "strict", 0.05, false}, "-tolerance only applies with -match metrics"},
		{"ramp", flags{"saturate", "run.json", "", 0, true}, "a scenario pins exactly one"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{"-mode", "record", "-as", c.f.as, "-scenario", c.f.scenario,
				"-match", c.f.match, "-tolerance", fmt.Sprint(c.f.tolerance)}
			if c.f.ramp {
				args = append(args, "-ramp")
			}
			_, err := parse(t, args...)
			checkHint(t, err, c.hint)
		})
	}
}

// TestValidateTelemetryFlags sweeps the telemetry flag validation shared
// by every serving mode: degenerate sampling intervals, outputs nobody
// receives, ramp sweeps that would overwrite one file per step, and
// unwritable output paths must all fail before any simulation starts.
func TestValidateTelemetryFlags(t *testing.T) {
	missing := t.TempDir() + "/no/such"
	cases := []struct {
		name string
		f    telemetryFlags
		ramp bool
		hint string
	}{
		{"defaults", telemetryFlags{}, false, ""},
		{"metrics only", telemetryFlags{metricsOut: "m.prom"}, false, ""},
		{"trace only", telemetryFlags{traceOut: "t.json"}, false, ""},
		{"both with sampling", telemetryFlags{metricsOut: "m.json", traceOut: "t.json", samplePs: 1e9}, false, ""},
		{"ramp without telemetry", telemetryFlags{}, true, ""},
		{"negative interval", telemetryFlags{metricsOut: "m.prom", samplePs: -1}, false, "-sample-ps must be non-negative"},
		{"sampling without metrics", telemetryFlags{samplePs: 1e9}, false, "-sample-ps needs -metrics-out"},
		{"sampling into trace only", telemetryFlags{traceOut: "t.json", samplePs: 1e9}, false, "-sample-ps needs -metrics-out"},
		{"ramp with metrics", telemetryFlags{metricsOut: "m.prom"}, true, "-ramp sweeps many"},
		{"ramp with trace", telemetryFlags{traceOut: "t.json"}, true, "-ramp sweeps many"},
		{"unwritable metrics path", telemetryFlags{metricsOut: missing + "/m.prom"}, false, "does not exist"},
		{"unwritable trace path", telemetryFlags{traceOut: missing + "/t.json"}, false, "does not exist"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkHint(t, c.f.validate(c.ramp), c.hint)
		})
	}
}

// TestReplayDirectoryRejectsTelemetry pins the corpus-sweep restriction:
// telemetry exports attach to exactly one replayed run, so a directory
// replay with -metrics-out must fail up front naming the directory.
func TestReplayDirectoryRejectsTelemetry(t *testing.T) {
	dir := t.TempDir()
	_, err := runReplay(dir, "", "text", "", telemetryFlags{metricsOut: dir + "/m.prom"})
	if err == nil || !strings.Contains(err.Error(), "corpus directory") {
		t.Fatalf("directory replay with telemetry: err = %v, want corpus-directory rejection", err)
	}
}

// TestValidateReplayFlags sweeps the replay-mode flag validation.
func TestValidateReplayFlags(t *testing.T) {
	type flags struct {
		scenario string
		match    string
		format   string
	}
	cases := []struct {
		name string
		f    flags
		hint string
	}{
		{"file", flags{"run.json", "", "text"}, ""},
		{"directory sweep", flags{"testdata/scenarios", "", "text"}, ""},
		{"strict override", flags{"run.json", "strict", "text"}, ""},
		{"metrics override", flags{"run.json", "metrics", "json"}, ""},
		{"junit", flags{"run.json", "", "junit"}, ""},
		{"no scenario", flags{"", "", "text"}, "-scenario must name a scenario file or directory"},
		{"unknown match", flags{"run.json", "approx", "text"}, "unknown -match"},
		{"unknown format", flags{"run.json", "", "tap"}, "unknown -format"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(t, "-mode", "replay", "-scenario", c.f.scenario, "-match", c.f.match, "-format", c.f.format)
			checkHint(t, err, c.hint)
		})
	}
}

// TestFlagModes sweeps every (mode, flag) pair through the parser with the
// flag set explicitly (to its default where that is a legal setting): the
// flags a mode uses are accepted,
// every other flag is rejected with one line naming it. The table is
// written out independently of flagModes; record is checked once per -as.
// The invocations at the end once exited 0 while ignoring a flag.
func TestFlagModes(t *testing.T) {
	const (
		serving = "board policy slots jobs bw stage budget seed metrics-out trace-out sample-ps cpuprofile"
		record  = "scenario as match tolerance"
	)
	modes := []struct{ mode, used string }{
		{"vim", "app size board policy pipelined bounce prefetch seed vcd cpuprofile"},
		{"normal", "app size board seed cpuprofile"},
		{"chunked", "app size board seed cpuprofile"},
		{"sw", "app size board seed cpuprofile"},
		{"multi", "size board arb split seed cpuprofile"},
		{"serve", serving + " gap"},
		{"saturate", serving + " rps arrival admit ramp"},
		{"fleet", serving + " rps arrival admit ramp boards dispatch"},
		{"record -as serve", serving + " gap " + record},
		{"record -as saturate", serving + " rps arrival admit " + record},
		{"record -as fleet", serving + " rps arrival admit boards dispatch " + record},
		{"replay", "scenario match format junit metrics-out trace-out sample-ps cpuprofile"},
	}
	dir := t.TempDir()
	value := map[string]string{ // explicit values where the default is not a legal setting
		"scenario": "x.json", "metrics-out": filepath.Join(dir, "m.prom"),
		"trace-out": filepath.Join(dir, "t.json"),
	}
	var names []string
	probe := flag.NewFlagSet("probe", flag.ContinueOnError)
	register(probe)
	probe.VisitAll(func(f *flag.Flag) {
		if f.Name != "mode" {
			names = append(names, f.Name)
			if _, ok := value[f.Name]; !ok {
				value[f.Name] = f.DefValue
			}
		}
	})
	for _, m := range modes {
		base := strings.Fields("-mode " + m.mode)
		if strings.HasPrefix(m.mode, "record") || m.mode == "replay" {
			base = append(base, "-scenario", "x.json")
		}
		for _, name := range names {
			v := value[name]
			if name == "as" && strings.HasPrefix(m.mode, "record") {
				v = base[3] // keep the recorded mode
			}
			_, err := parse(t, append(append([]string(nil), base...), "-"+name+"="+v)...)
			if slices.Contains(strings.Fields(m.used), name) {
				if err != nil {
					t.Errorf("%s: -%s rejected: %v", m.mode, name, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s: -%s accepted, but the mode ignores it", m.mode, name)
				continue
			}
			if !strings.Contains(err.Error(), "-"+name+" ") || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: -%s rejection is not one line naming the flag: %q", m.mode, name, err)
			}
		}
	}
	for _, args := range []string{
		"-mode serve -jobs 3 -scenario x.json -format junit -as fleet",
		"-mode saturate -junit j.xml",
		"-mode replay -scenario x.json -as fleet",
		"-mode vim -slots 4 -jobs 9 -gap 3 -arb global-lru -split 3 -bw 5",
		"-mode sw -vcd w.vcd",
		"-mode saturate -ramp -budget 2",
	} {
		if _, err := parse(t, strings.Fields(args)...); err == nil {
			t.Errorf("vimsim %s: accepted", args)
		}
	}
}

// TestCorpusReRecord re-runs every corpus scenario's recorded command line
// (its description) through the in-process record path: the serialized
// result must equal the committed file byte for byte.
func TestCorpusReRecord(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus scenarios found (%v)", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			args := strings.Fields(sc.Description)
			if len(args) == 0 || args[0] != "vimsim" {
				t.Fatalf("description %q is not a vimsim command line", sc.Description)
			}
			o, err := parse(t, args[1:]...)
			if err != nil {
				t.Fatal(err)
			}
			re, err := o.srv.record(o.scenario, scenario.Match{Mode: o.match, Tolerance: o.tolerance}, nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := scenario.Serialize(re)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) {
				t.Errorf("re-recording %s from its description differs from the committed file", p)
			}
		})
	}
}

// TestCPUProfile runs a small vim-mode simulation and a small serve run
// with -cpuprofile: each must leave a non-empty, gzip-framed pprof file,
// written whole before the run returns. The runs' reports are discarded.
func TestCPUProfile(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout }()
	dir := t.TempDir()
	for i, args := range []string{
		"-mode vim -app vecadd -size 1024",
		"-mode serve -jobs 4 -slots 2",
	} {
		path := filepath.Join(dir, fmt.Sprintf("cpu%d.out", i))
		o, err := parse(t, append(strings.Fields(args), "-cpuprofile", path)...)
		if err != nil {
			t.Fatal(err)
		}
		if code, err := profiled(o.cpuprofile, func() (int, error) { return execute(o) }); code != 0 || err != nil {
			t.Fatalf("%s: exit %d, %v", args, code, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: profile is %d bytes, not gzip-framed", args, len(data))
		}
	}
}
