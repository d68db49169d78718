package exp

import (
	"strings"
	"testing"

	"repro/internal/imu"
)

// These tests assert the reproduction targets of the evaluation (§4): the *shapes*
// of the paper's figures, not absolute numbers.

func run(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

func TestFig7Shape(t *testing.T) {
	res := run(t, "FIG7")
	if res.Series["latency_cycles"] != 4 {
		t.Fatalf("translated read latency = %v cycles, paper says 4", res.Series["latency_cycles"])
	}
	if res.Series["read_value_ok"] != 1 {
		t.Fatal("translated read returned wrong data")
	}
}

// TestFig7BenchModes runs the Figure 7 testbench wavedump shares with
// FIG7 under both IMU modes: the read returns the stored word, CP_TLBHIT
// rises 4 edges after CP_ACCESS with the multi-cycle IMU and 1 edge after
// with the pipelined one, and recording stops at the completing edge.
func TestFig7BenchModes(t *testing.T) {
	for mode, latency := range map[imu.Mode]int64{imu.MultiCycle: 4, imu.Pipelined: 1} {
		b, err := RunFig7Bench(mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if b.Data != 0xcafe0042 {
			t.Errorf("%s: read %#x, want 0xcafe0042", mode, b.Data)
		}
		if got := b.HitAt - b.AccessAt; b.AccessAt < 0 || got != latency {
			t.Errorf("%s: CP_ACCESS at %d, CP_TLBHIT at %d; want a latency of %d", mode, b.AccessAt, b.HitAt, latency)
		}
		if b.LastEdge != b.HitAt {
			t.Errorf("%s: last recorded edge %d, want the hit edge %d", mode, b.LastEdge, b.HitAt)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res := run(t, "FIG8")
	// Paper: speedups 1.5x/1.5x/1.6x; assert 1.3-1.9x at every size.
	for _, sz := range []string{"2KB", "4KB", "8KB"} {
		s := res.Series["speedup/"+sz]
		if s < 1.3 || s > 1.9 {
			t.Errorf("adpcm speedup at %s = %.2fx, want 1.3-1.9x", sz, s)
		}
	}
	// No faults at 2 KB, faults from 4 KB onwards.
	if res.Series["faults/2KB"] != 0 {
		t.Errorf("faults at 2KB = %v, want 0", res.Series["faults/2KB"])
	}
	if res.Series["faults/4KB"] == 0 || res.Series["faults/8KB"] == 0 {
		t.Error("expected faults at 4KB and 8KB")
	}
	// SW times double with input size (paper: ~4.4/8.9/17.8 ms).
	if r := res.Series["sw_ms/8KB"] / res.Series["sw_ms/4KB"]; r < 1.8 || r > 2.2 {
		t.Errorf("SW scaling 4->8KB = %.2f, want ~2", r)
	}
	// IMU-management share stays small.
	for _, sz := range []string{"2KB", "4KB", "8KB"} {
		if f := res.Series["swimu_frac/"+sz]; f > 0.04 {
			t.Errorf("SW(IMU) fraction at %s = %.3f, want <= 0.04 (paper: 2.5%%)", sz, f)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res := run(t, "FIG9")
	// Paper: speedups ≈11-12x; assert 8-14x.
	for _, sz := range []string{"4KB", "8KB", "16KB", "32KB"} {
		s := res.Series["speedup_vim/"+sz]
		if s < 8 || s > 14 {
			t.Errorf("IDEA VIM speedup at %s = %.1fx, want 8-14x", sz, s)
		}
	}
	// Normal coprocessor exists at 4/8 KB and not beyond.
	if _, ok := res.Series["normal_ms/4KB"]; !ok {
		t.Error("normal coprocessor missing at 4KB")
	}
	if _, ok := res.Series["normal_ms/8KB"]; !ok {
		t.Error("normal coprocessor missing at 8KB")
	}
	if _, ok := res.Series["normal_ms/16KB"]; ok {
		t.Error("normal coprocessor should exceed memory at 16KB")
	}
	if _, ok := res.Series["normal_ms/32KB"]; ok {
		t.Error("normal coprocessor should exceed memory at 32KB")
	}
	// Normal is at least as fast as VIM where it runs (paper: 12x vs 11x).
	for _, sz := range []string{"4KB", "8KB"} {
		if res.Series["speedup_normal/"+sz]+0.01 < res.Series["speedup_vim/"+sz] {
			t.Errorf("normal slower than VIM at %s", sz)
		}
	}
	// SW times roughly double per size step (paper: 26/53/105/211 ms).
	if r := res.Series["sw_ms/32KB"] / res.Series["sw_ms/16KB"]; r < 1.8 || r > 2.2 {
		t.Errorf("SW scaling 16->32KB = %.2f, want ~2", r)
	}
	// Faults appear once the working set exceeds the DP RAM.
	if res.Series["faults/16KB"] == 0 || res.Series["faults/32KB"] == 0 {
		t.Error("expected faults at 16KB and 32KB")
	}
	// The VIM keeps scaling: time roughly doubles 16->32 KB.
	if r := res.Series["vim_ms/32KB"] / res.Series["vim_ms/16KB"]; r < 1.7 || r > 2.3 {
		t.Errorf("VIM scaling 16->32KB = %.2f, want ~2", r)
	}
}

func TestOverheadShape(t *testing.T) {
	res := run(t, "OVERHEAD")
	// Paper: SW(IMU) up to 2.5% of total (we allow a little slack).
	for k, v := range res.Series {
		if strings.Contains(k, "imu_frac") && v > 3.0 {
			t.Errorf("%s = %.2f%%, want <= 3%%", k, v)
		}
	}
	// Paper: IDEA translation overhead around 20% of HW time.
	for _, k := range []string{"idea_xlat_frac/8KB", "idea_xlat_frac/16KB"} {
		if v := res.Series[k]; v < 10 || v > 28 {
			t.Errorf("%s = %.1f%%, want 10-28%% (paper ~20%%)", k, v)
		}
	}
}

func TestPortabilityShape(t *testing.T) {
	res := run(t, "PORT")
	// Faults shrink as the DP RAM grows; EPXA10 holds the whole working set.
	if !(res.Series["faults/EPXA1"] > res.Series["faults/EPXA4"]) {
		t.Errorf("EPXA4 should fault less than EPXA1: %v vs %v",
			res.Series["faults/EPXA4"], res.Series["faults/EPXA1"])
	}
	if res.Series["faults/EPXA10"] != 0 {
		t.Errorf("EPXA10 faults = %v, want 0 (64 KB DP RAM)", res.Series["faults/EPXA10"])
	}
}

func TestBounceShape(t *testing.T) {
	res := run(t, "BOUNCE")
	// Double transfers land between 1.5x and 2.5x the direct SW(DP) time.
	for _, k := range []string{"swdp_ratio/adpcm", "swdp_ratio/idea"} {
		if v := res.Series[k]; v < 1.5 || v > 2.5 {
			t.Errorf("%s = %.2f, want ~2 (two transfers per page)", k, v)
		}
	}
}

func TestPipelineShape(t *testing.T) {
	res := run(t, "PIPELINE")
	for _, k := range []string{"hw_saved_pct/adpcm", "hw_saved_pct/idea"} {
		if v := res.Series[k]; v <= 5 {
			t.Errorf("%s = %.1f%%, pipelining should recover measurable HW time", k, v)
		}
	}
}

func TestPrefetchShape(t *testing.T) {
	res := run(t, "PREFETCH")
	if !(res.Series["faults/1"] < res.Series["faults/0"]) {
		t.Error("prefetch 1 did not reduce faults")
	}
	if !(res.Series["faults/2"] <= res.Series["faults/1"]) {
		t.Error("prefetch 2 did not reduce faults further")
	}
}

func TestPageSizeShape(t *testing.T) {
	res := run(t, "PAGESIZE")
	// Smaller pages always fault more on a streaming workload.
	if !(res.Series["faults/512B"] > res.Series["faults/1024B"] &&
		res.Series["faults/1024B"] > res.Series["faults/2048B"] &&
		res.Series["faults/2048B"] > res.Series["faults/4096B"]) {
		t.Error("fault counts not monotone in page size")
	}
	// The paper's 2 KB choice sits at the knee: within 2% of the best
	// total across the sweep.
	best := res.Series["total_ms/512B"]
	for _, k := range []string{"total_ms/1024B", "total_ms/2048B", "total_ms/4096B"} {
		if res.Series[k] < best {
			best = res.Series[k]
		}
	}
	if res.Series["total_ms/2048B"] > best*1.02 {
		t.Errorf("2 KB pages %.3f ms, > 2%% off the sweep best %.3f ms",
			res.Series["total_ms/2048B"], best)
	}
}

func TestChunkShape(t *testing.T) {
	res := run(t, "CHUNK")
	// The VIM's transparency tax over hand-chunking stays below 25%.
	tax := res.Series["vim_ms"]/res.Series["chunked_ms"] - 1
	if tax < 0 || tax > 0.25 {
		t.Errorf("VIM vs hand-chunked tax = %.1f%%, want 0-25%%", tax*100)
	}
}

func TestFig3Shape(t *testing.T) {
	res := run(t, "FIG3")
	if !(res.Series["vim_ms"] < res.Series["sw_ms"]) {
		t.Error("VIM-based vecadd not faster than pure SW")
	}
	if !(res.Series["typ_ms"] <= res.Series["vim_ms"]) {
		t.Error("typical coprocessor should be at most as fast as VIM (no OS overhead)")
	}
}

func TestDeadlineShape(t *testing.T) {
	res := run(t, "DEADLINE")
	// The headline acceptance property: slack with pre-staging strictly
	// lowers p99 latency and deadline miss-rate against the PR-4 affinity
	// scheduler on the slow configuration port.
	if !(res.Series["p99_ms/slack+stage"] < res.Series["p99_ms/affinity"]) {
		t.Errorf("slack+staging p99 %.3f ms not below plain affinity's %.3f ms",
			res.Series["p99_ms/slack+stage"], res.Series["p99_ms/affinity"])
	}
	if !(res.Series["miss_rate/slack+stage"] < res.Series["miss_rate/affinity"]) {
		t.Errorf("slack+staging miss rate %.3f not below plain affinity's %.3f",
			res.Series["miss_rate/slack+stage"], res.Series["miss_rate/affinity"])
	}
	// Pre-staging must actually fire and must cut full reconfigurations
	// for every policy that runs with it.
	for _, p := range []string{"affinity", "edf", "slack"} {
		if res.Series["stage_commits/"+p+"+stage"] == 0 {
			t.Errorf("%s+stage never committed a pre-staged bitstream", p)
		}
		if !(res.Series["reconfig_ms/"+p+"+stage"] < res.Series["reconfig_ms/"+p]) {
			t.Errorf("%s+stage config time %.3f ms not below %.3f ms without staging",
				p, res.Series["reconfig_ms/"+p+"+stage"], res.Series["reconfig_ms/"+p])
		}
	}
	// Pinned-stream property, not a theorem: deadlines feed the slack
	// policy's decisions, so a different budget factor yields a different
	// schedule — but on this pinned stream looser budgets do lower the
	// miss rate, and a break here means the pinned fixture drifted.
	if !(res.Series["miss_rate/slack+stage/b2"] <= res.Series["miss_rate/slack+stage/b1"] &&
		res.Series["miss_rate/slack+stage/b1"] <= res.Series["miss_rate/slack+stage/b0.5"]) {
		t.Error("slack+stage miss rate no longer monotone in the budget factor on the pinned stream (fixture drift?)")
	}
}

func TestSaturateShape(t *testing.T) {
	res := run(t, "SATURATE")
	knee, sat := res.Series["knee_rps"], res.Series["saturation_rps"]
	if knee <= 0 || sat <= knee {
		t.Fatalf("ramp found no knee strictly below saturation: knee %.0f, saturation %.0f", knee, sat)
	}
	// The headline acceptance property, at twice the detected knee for both
	// deadline policies: shedding provably-late jobs strictly improves
	// goodput and strictly tightens the admitted-job p99 over admitting
	// everything — and actually sheds something, or the comparison is vacuous.
	for _, p := range []string{"slack", "edf"} {
		off, rej := p+"/off/2x", p+"/reject/2x"
		if res.Series["shed_rate/"+rej] == 0 {
			t.Errorf("%s: admission shed nothing at 2x the knee", p)
		}
		if !(res.Series["goodput_rps/"+rej] > res.Series["goodput_rps/"+off]) {
			t.Errorf("%s: admission goodput %.0f jobs/s not above admit-everything's %.0f",
				p, res.Series["goodput_rps/"+rej], res.Series["goodput_rps/"+off])
		}
		if !(res.Series["p99_admitted_ms/"+rej] < res.Series["p99_admitted_ms/"+off]) {
			t.Errorf("%s: admitted-job p99 %.3f ms not below admit-everything's %.3f ms",
				p, res.Series["p99_admitted_ms/"+rej], res.Series["p99_admitted_ms/"+off])
		}
		// Degrade mode answers every request, so it sheds nothing outright.
		if res.Series["shed_rate/"+p+"/degrade/2x"] != 0 {
			t.Errorf("%s: degrade mode rejected jobs outright", p)
		}
	}
}

func TestFleetShape(t *testing.T) {
	res := run(t, "FLEET")
	if res.Series["knee_rps"] <= 0 {
		t.Fatal("fleet experiment found no single-board knee to scale from")
	}
	// The headline acceptance property, at 4 boards offered 2x the knee per
	// board: the locality-aware policies strictly beat seeded-random routing
	// on goodput AND on fleet-wide configuration traffic. Residency is a
	// resource the dispatcher can conserve, not just a tiebreak.
	for _, d := range []string{"affinity", "po2"} {
		if !(res.Series["goodput_rps/"+d+"/4"] > res.Series["goodput_rps/random/4"]) {
			t.Errorf("%s goodput %.0f jobs/s not above random's %.0f at 4 boards",
				d, res.Series["goodput_rps/"+d+"/4"], res.Series["goodput_rps/random/4"])
		}
		if !(res.Series["config_ms/"+d+"/4"] < res.Series["config_ms/random/4"]) {
			t.Errorf("%s config traffic %.3f ms not below random's %.3f ms at 4 boards",
				d, res.Series["config_ms/"+d+"/4"], res.Series["config_ms/random/4"])
		}
	}
	// Admission through the dispatcher actually sheds under overload, and
	// (pinned-stream property) shedding helps goodput as it did single-board.
	for _, d := range []string{"random", "affinity"} {
		if res.Series["admit_shed_rate/"+d+"/reject/4"] == 0 {
			t.Errorf("%s: fleet admission shed nothing at 2x the knee per board", d)
		}
		if !(res.Series["admit_goodput_rps/"+d+"/reject/4"] > res.Series["admit_goodput_rps/"+d+"/off/4"]) {
			t.Errorf("%s: fleet admission goodput %.0f not above admit-everything's %.0f",
				d, res.Series["admit_goodput_rps/"+d+"/reject/4"], res.Series["admit_goodput_rps/"+d+"/off/4"])
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"FIG3", "FIG7", "FIG8", "FIG9", "OVERHEAD", "PORT",
		"POLICY", "BOUNCE", "PIPELINE", "PREFETCH", "PAGESIZE", "CHUNK",
		"SESSIONS", "SERVE", "DEADLINE", "SATURATE", "FLEET"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, ok := ByID("fig9"); !ok {
		t.Error("ByID should be case-insensitive")
	}
	if _, ok := ByID("NOPE"); ok {
		t.Error("ByID accepted unknown id")
	}
}
