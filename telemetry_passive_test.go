// Telemetry passivity and determinism, proven differentially: a metered
// run's report is DeepEqual to an unmetered one —
// over a serving board and over a fleet, under BOTH simulation schedulers
// — and the exports themselves (metrics JSON, Chrome trace JSON) are a
// pure function of (config, seed), byte for byte. The recorded scenario
// corpus doubles as the drift detector: every pinned scenario must still
// reproduce exactly with telemetry attached.
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// telemetrySamplePs is the gauge sampling interval the telemetry tests
// use: 1 ms of simulated time, fine enough that every run here crosses
// many boundaries.
const telemetrySamplePs = 1e9

func telemetryStream(t *testing.T) []rcsched.Job {
	t.Helper()
	jobs, err := traffic.Stream(48, 2024, traffic.Spec{Process: traffic.Poisson, RPS: 3200})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func telemetryServeConfig(m *telemetry.Meter) rcsched.Config {
	return rcsched.Config{Policy: "slack", Slots: 2, Stage: true, Admit: rcsched.AdmitReject, Meter: m}
}

func telemetryFleetConfig(m *telemetry.Meter) fleet.Config {
	return fleet.Config{Boards: 4, Dispatch: fleet.Affinity, Seed: 11, Board: telemetryServeConfig(nil), Meter: m}
}

// TestTelemetryPassive is the passivity differential: with telemetry off
// and on, a serve run and a fleet run produce DeepEqual reports under both
// the lockstep reference scheduler and the event-driven default.
func TestTelemetryPassive(t *testing.T) {
	jobs := telemetryStream(t)
	for _, ph := range []struct {
		name  string
		sched sim.Scheduler
	}{
		{"lockstep", sim.Lockstep},
		{"event", sim.EventDriven},
	} {
		t.Run(ph.name, func(t *testing.T) {
			prev := sim.SetDefaultScheduler(ph.sched)
			defer sim.SetDefaultScheduler(prev)

			plain, err := rcsched.Serve(telemetryServeConfig(nil), jobs)
			if err != nil {
				t.Fatal(err)
			}
			metered, err := rcsched.Serve(telemetryServeConfig(telemetry.NewMeter(telemetrySamplePs)), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, metered) {
				t.Error("metering a serve run changed its report")
			}

			fplain, err := fleet.Run(telemetryFleetConfig(nil), jobs)
			if err != nil {
				t.Fatal(err)
			}
			fmetered, err := fleet.Run(telemetryFleetConfig(telemetry.NewMeter(telemetrySamplePs)), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fplain, fmetered) {
				t.Error("metering a fleet run changed its report")
			}
		})
	}
}

// telemetryFleetExports runs the metered fleet of telemetryFleetConfig over
// telemetryStream and returns its metrics dump and Chrome trace bytes.
func telemetryFleetExports(t *testing.T) (metrics, trace []byte) {
	t.Helper()
	m := telemetry.NewMeter(telemetrySamplePs)
	if _, err := fleet.Run(telemetryFleetConfig(m), telemetryStream(t)); err != nil {
		t.Fatal(err)
	}
	metrics, err := m.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	trace, err = m.Trace().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return metrics, trace
}

// TestTelemetryExportsDeterministic pins the export side: two same-seed
// metered fleet runs write byte-identical metrics and trace files, the
// trace parses as Chrome trace-event JSON with span and instant events,
// and the sampled queue-depth time series is present and non-empty.
func TestTelemetryExportsDeterministic(t *testing.T) {
	m1, t1 := telemetryFleetExports(t)
	m2, t2 := telemetryFleetExports(t)
	if !bytes.Equal(m1, m2) {
		t.Error("same-seed fleet runs dumped different metrics bytes")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed fleet runs exported different trace bytes")
	}

	var dump telemetry.JSONDump
	if err := json.Unmarshal(m1, &dump); err != nil {
		t.Fatalf("metrics dump does not parse: %v", err)
	}
	queueSamples := 0
	for _, s := range dump.Series {
		if s.Name == "rcsched_queue_depth" {
			queueSamples += len(s.Samples)
		}
	}
	if queueSamples == 0 {
		t.Error("no sampled queue-depth time series in the metrics dump")
	}

	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(t1, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	spans, instants := 0, 0
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if spans == 0 || instants == 0 {
		t.Errorf("trace has %d spans and %d instants; want both non-zero", spans, instants)
	}
}

// telemetryDigestsPath holds the SHA-256 of telemetryFleetExports' two
// byte streams under each scheduler. Run-vs-run identity alone would let a
// change that alters the exports consistently pass; the digests pin them
// across commits. The metrics dump differs between schedulers because it
// carries the engine's own edge and skip tallies.
const telemetryDigestsPath = "testdata/telemetry_digests.json"

type telemetryDigests struct {
	MetricsSHA256 string `json:"metrics_sha256"`
	TraceSHA256   string `json:"trace_sha256"`
}

// TestTelemetryExportDigests enforces the committed export digests under
// both schedulers. Regenerate with -update-golden.
func TestTelemetryExportDigests(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	var want map[string]telemetryDigests
	if !*updateGolden {
		data, err := os.ReadFile(telemetryDigestsPath)
		if err != nil {
			t.Fatalf("missing digest file (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]telemetryDigests{}
	for _, ph := range []struct {
		name  string
		sched sim.Scheduler
	}{
		{"lockstep", sim.Lockstep},
		{"event", sim.EventDriven},
	} {
		prev := sim.SetDefaultScheduler(ph.sched)
		metrics, trace := telemetryFleetExports(t)
		sim.SetDefaultScheduler(prev)
		g := telemetryDigests{MetricsSHA256: digest(metrics), TraceSHA256: digest(trace)}
		got[ph.name] = g
		if want == nil {
			continue
		}
		w, ok := want[ph.name]
		if !ok {
			t.Errorf("%s: no digests in %s (re-run with -update-golden)", ph.name, telemetryDigestsPath)
			continue
		}
		if g.MetricsSHA256 != w.MetricsSHA256 {
			t.Errorf("%s: metrics export digest drifted: got %s, want %s", ph.name, g.MetricsSHA256, w.MetricsSHA256)
		}
		if g.TraceSHA256 != w.TraceSHA256 {
			t.Errorf("%s: trace export digest drifted: got %s, want %s", ph.name, g.TraceSHA256, w.TraceSHA256)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(telemetryDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", telemetryDigestsPath)
	}
}

// TestScenarioCorpusMetered replays every pinned scenario with telemetry
// attached, under both schedulers: zero drift allowed. Passivity over the
// whole greppable regression corpus, not just the synthetic streams above.
func TestScenarioCorpusMetered(t *testing.T) {
	scs := loadScenarioCorpus(t)
	for _, ph := range []struct {
		name  string
		sched sim.Scheduler
	}{
		{"lockstep", sim.Lockstep},
		{"event", sim.EventDriven},
	} {
		t.Run(ph.name, func(t *testing.T) {
			prev := sim.SetDefaultScheduler(ph.sched)
			defer sim.SetDefaultScheduler(prev)
			for _, sc := range scs {
				res, err := scenario.ReplayMetered(sc, "", telemetry.NewMeter(telemetrySamplePs))
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				if !res.Pass() {
					t.Errorf("%s drifted under telemetry:\n%s", sc.Name, res.Text())
				}
			}
		})
	}
}
