// Benchmarks regenerating every figure and table of the paper's evaluation.
// Each benchmark runs the corresponding simulated experiment per iteration
// and publishes the *simulated* execution times as custom metrics
// (sim-ms-*), so `go test -bench=.` reproduces the paper's numbers while
// also tracking host-side simulator performance.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/telemetry"
)

// reportSim publishes a simulated-time metric.
func reportSim(b *testing.B, name string, ps float64) {
	b.ReportMetric(ps/1e9, name)
}

// reportEdges publishes the simulator's edge tallies for one op, taken
// from one extra metered run outside the timer (metering is passive, and
// an op's simulation is a pure function of its config): delivered shell
// edges per op, simulated edges per op (delivered + bulk-skipped, which no
// skipping change can move, so it is the work denominator) and host ns per
// simulated edge over the timed ops. Call it after the timed loop.
func reportEdges(b *testing.B, run func(m *telemetry.Meter) error) {
	b.StopTimer()
	m := telemetry.NewMeter(0)
	if err := run(m); err != nil {
		b.Fatal(err)
	}
	var delivered, skipped uint64
	for _, s := range m.Dump().Series {
		switch s.Name {
		case "sim_edges_delivered_total":
			delivered += s.Counter
		case "sim_edges_skipped_total":
			skipped += s.Counter
		}
	}
	simEdges := float64(delivered + skipped)
	b.ReportMetric(float64(delivered), "edges/op")
	b.ReportMetric(simEdges, "sim-edges/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simEdges, "ns/sim-edge")
}

// reportRunEdges publishes the same edge tallies as reportEdges for an op
// made of the given hardware runs, from the engine tallies each report
// carries (an op is a pure function of its config, so any iteration's
// reports stand for all). Call it after the timed loop.
func reportRunEdges(b *testing.B, reps ...*core.Report) {
	var delivered, skipped int64
	for _, r := range reps {
		delivered += r.Sim.EdgesDelivered
		skipped += r.Sim.EdgesSkipped
	}
	simEdges := float64(delivered + skipped)
	b.ReportMetric(float64(delivered), "edges/op")
	b.ReportMetric(simEdges, "sim-edges/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simEdges, "ns/sim-edge")
}

// BenchmarkFig3MotivatingExample regenerates Figure 3's three versions of
// the vector-add application (pure SW, typical coprocessor, VIM-based).
// The edge tallies are the two hardware versions'.
func BenchmarkFig3MotivatingExample(b *testing.B) {
	var typ, vim *core.Report
	for i := 0; i < b.N; i++ {
		sw, t, v, err := exp.Fig3Reports()
		if err != nil {
			b.Fatal(err)
		}
		typ, vim = t, v
		reportSim(b, "sim-ms-sw", sw.TotalPs())
		reportSim(b, "sim-ms-typical", typ.TotalPs())
		reportSim(b, "sim-ms-vim", vim.TotalPs())
	}
	reportRunEdges(b, typ, vim)
}

// BenchmarkFig7ReadAccess regenerates Figure 7, the 4-cycle translated read.
func BenchmarkFig7ReadAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series["latency_cycles"], "latency-cycles")
	}
}

// BenchmarkFig8Adpcmdecode regenerates Figure 8 cell by cell.
func BenchmarkFig8Adpcmdecode(b *testing.B) {
	for _, n := range []int{2048, 4096, 8192} {
		label := map[int]string{2048: "2KB", 4096: "4KB", 8192: "8KB"}[n]
		b.Run("SW-"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{}, "adpcm", "sw", n, int64(800+n), nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
			}
		})
		b.Run("VIM-"+label, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = exp.Run(repro.Config{}, "adpcm", "vim", n, int64(800+n), nil); err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
			reportRunEdges(b, rep)
		})
	}
}

// BenchmarkFig9IDEA regenerates Figure 9 cell by cell (the normal
// coprocessor rows exist only while the data fits the dual-port RAM).
func BenchmarkFig9IDEA(b *testing.B) {
	labels := map[int]string{4096: "4KB", 8192: "8KB", 16384: "16KB", 32768: "32KB"}
	for _, n := range []int{4096, 8192, 16384, 32768} {
		label := labels[n]
		b.Run("SW-"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{}, "idea", "sw", n, int64(900+n), nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
			}
		})
		if n <= 8192 {
			b.Run("Normal-"+label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, err := exp.Run(repro.Config{}, "idea", "normal", n, int64(900+n), nil)
					if err != nil {
						b.Fatal(err)
					}
					reportSim(b, "sim-ms", rep.TotalPs())
				}
			})
		}
		b.Run("VIM-"+label, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = exp.Run(repro.Config{}, "idea", "vim", n, int64(900+n), nil); err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
			reportRunEdges(b, rep)
		})
	}
}

// BenchmarkTableOverheads regenerates the §4.1 overhead figures.
func BenchmarkTableOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunOverhead()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series["idea_imu_frac/16KB"], "idea-swimu-pct")
		b.ReportMetric(res.Series["idea_xlat_frac/16KB"], "idea-xlat-pct")
	}
}

// BenchmarkTablePortability regenerates the portability table.
func BenchmarkTablePortability(b *testing.B) {
	for _, board := range []string{"EPXA1", "EPXA4", "EPXA10"} {
		b.Run(board, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{Board: board}, "idea", "vim", 16384, 777, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
		})
	}
}

// BenchmarkAblationPolicies compares the replacement policies of §3.3.
func BenchmarkAblationPolicies(b *testing.B) {
	for _, pol := range []string{"fifo", "lru", "clock", "random"} {
		b.Run(pol, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{Policy: pol, Seed: 4242}, "idea", "vim", 32768, 4242, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
		})
	}
}

// BenchmarkAblationBounceBuffer measures the double-transfer penalty.
func BenchmarkAblationBounceBuffer(b *testing.B) {
	for _, bounce := range []bool{false, true} {
		name := "direct"
		if bounce {
			name = "bounce"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{BounceBuffer: bounce}, "adpcm", "vim", 8192, 21, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms-swdp", rep.SWDPPs)
			}
		})
	}
}

// BenchmarkAblationPipelinedIMU measures the translation overhead recovery.
func BenchmarkAblationPipelinedIMU(b *testing.B) {
	for _, pipe := range []bool{false, true} {
		name := "multicycle"
		if pipe {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{PipelinedIMU: pipe}, "idea", "vim", 16384, 32, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms-hw", rep.HWPs)
			}
		})
	}
}

// BenchmarkAblationPrefetch sweeps the sequential prefetch depth.
func BenchmarkAblationPrefetch(b *testing.B) {
	for _, pf := range []int{0, 1, 2} {
		b.Run(map[int]string{0: "off", 1: "1page", 2: "2pages"}[pf], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{PrefetchPages: pf}, "adpcm", "vim", 8192, 51, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
		})
	}
}

// BenchmarkAblationPageSize sweeps the dual-port RAM page size.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, lg := range []uint{10, 11, 12} {
		b.Run(map[uint]string{10: "1KB", 11: "2KB", 12: "4KB"}[lg], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := exp.Run(repro.Config{PageLog: lg}, "adpcm", "vim", 8192, 71, nil)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms", rep.TotalPs())
				b.ReportMetric(float64(rep.VIM.Faults), "faults")
			}
		})
	}
}

// BenchmarkServe runs the dynamic-reconfiguration serving cells: the
// 24-job SERVE stream on two shell slots under each scheduling policy —
// including the deadline-aware pair, with and without pre-staged
// reconfiguration for slack — plus the open-loop saturation pair, the
// SATURATE stream offered at twice the detected knee with admission
// control off and rejecting. The simulated makespan, reconfiguration,
// deadline and goodput metrics are published alongside the host-side cost
// of running the whole serving loop.
func BenchmarkServe(b *testing.B) {
	jobs := exp.ServeTrace()
	for _, c := range []struct {
		name   string
		policy string
		stage  bool
	}{
		{"fcfs", "fcfs", false},
		{"sjf", "sjf", false},
		{"affinity", "affinity", false},
		{"edf", "edf", false},
		{"slack", "slack", false},
		{"slack-staged", "slack", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := rcsched.Config{Policy: c.policy, Slots: 2, Stage: c.stage}
			for i := 0; i < b.N; i++ {
				rep, err := rcsched.Serve(cfg, jobs)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms-makespan", rep.MakespanPs)
				reportSim(b, "sim-ms-reconfig", rep.TotalReconfigPs)
				reportSim(b, "sim-ms-p99", rep.P99LatencyPs)
				b.ReportMetric(float64(rep.Reconfigs), "reconfigs")
				b.ReportMetric(rep.MissRate, "miss-rate")
			}
			reportEdges(b, func(m *telemetry.Meter) error {
				cfg.Meter = m
				_, err := rcsched.Serve(cfg, jobs)
				return err
			})
		})
	}
	// Open-loop saturation cells: 1600 jobs/s is twice the knee the pinned
	// SATURATE ramp detects for this configuration (testdata/saturate_cells.json).
	saturated, err := exp.SaturateStream(1600)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		admit string
	}{
		{"saturate-off", rcsched.AdmitOff},
		{"saturate-admit", rcsched.AdmitReject},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := rcsched.Config{Policy: "slack", Slots: 2, Admit: c.admit}
			for i := 0; i < b.N; i++ {
				rep, err := rcsched.Serve(cfg, saturated)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms-makespan", rep.MakespanPs)
				reportSim(b, "sim-ms-p99-admitted", rep.P99AdmittedPs)
				b.ReportMetric(rep.GoodputRPS, "goodput-rps")
				b.ReportMetric(rep.ShedRate, "shed-rate")
				b.ReportMetric(rep.MissRate, "miss-rate")
			}
			reportEdges(b, func(m *telemetry.Meter) error {
				cfg.Meter = m
				_, err := rcsched.Serve(cfg, saturated)
				return err
			})
		})
	}
}

// BenchmarkFleet runs the fleet dispatch cells: the FLEET stream — twice
// the single-board knee per board, 1600 jobs/s x 4 boards per the pinned
// SATURATE ramp (testdata/saturate_cells.json) — dispatched across four
// two-slot boards under the uninformed baseline and both locality-aware
// policies. Publishes fleet goodput, p99 and config-traffic metrics next to
// the host-side cost of routing plus concurrent board serving.
func BenchmarkFleet(b *testing.B) {
	jobs, err := exp.FleetStream(4, 800)
	if err != nil {
		b.Fatal(err)
	}
	for _, dispatch := range []string{fleet.Random, fleet.Affinity, fleet.Po2} {
		b.Run(dispatch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Run(exp.FleetConfig(dispatch, 4, rcsched.AdmitOff), jobs)
				if err != nil {
					b.Fatal(err)
				}
				reportSim(b, "sim-ms-makespan", rep.MakespanPs)
				reportSim(b, "sim-ms-config", rep.TotalReconfigPs)
				reportSim(b, "sim-ms-p99", rep.P99LatencyPs)
				b.ReportMetric(rep.GoodputRPS, "goodput-rps")
				b.ReportMetric(float64(rep.Reconfigs), "reconfigs")
				b.ReportMetric(rep.MissRate, "miss-rate")
			}
			reportEdges(b, func(m *telemetry.Meter) error {
				cfg := exp.FleetConfig(dispatch, 4, rcsched.AdmitOff)
				cfg.Meter = m
				_, err := fleet.Run(cfg, jobs)
				return err
			})
		})
	}
}

// BenchmarkAblationChunkedBaseline compares the Figure 3 hand-chunked loop
// against the transparent VIM on an out-of-memory dataset.
func BenchmarkAblationChunkedBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunChunkAblation()
		if err != nil {
			b.Fatal(err)
		}
		reportSim(b, "sim-ms-chunked", res.Series["chunked_ms"]*1e9)
		reportSim(b, "sim-ms-vim", res.Series["vim_ms"]*1e9)
	}
}
