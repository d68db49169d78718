// Telemetry passivity and determinism, proven differentially: a metered
// run's report is DeepEqual to an unmetered one — over a serving board and
// over a fleet — and the exports themselves (metrics JSON, Chrome trace
// JSON) are a pure function of (config, seed), byte for byte. The recorded scenario
// corpus doubles as the drift detector: every pinned scenario must still
// reproduce exactly with telemetry attached.
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// telemetrySamplePs is the gauge sampling interval the telemetry tests
// use: 1 ms of simulated time, fine enough that every run here crosses
// many boundaries.
const telemetrySamplePs = 1e9

func telemetryStream() ([]rcsched.Job, error) {
	return traffic.Stream(48, 2024, traffic.Spec{Process: traffic.Poisson, RPS: 3200})
}

func telemetryServeConfig(m *telemetry.Meter) rcsched.Config {
	return rcsched.Config{Policy: "slack", Slots: 2, Stage: true, Admit: rcsched.AdmitReject, Meter: m}
}

func telemetryFleetConfig(m *telemetry.Meter) fleet.Config {
	return fleet.Config{Boards: 4, Dispatch: fleet.Affinity, Seed: 11, Board: telemetryServeConfig(nil), Meter: m}
}

// TestTelemetryPassive is the passivity differential: with telemetry off
// and on, a serve run and a fleet run produce DeepEqual reports under the
// package-default scheduler (a subtest named after it).
func TestTelemetryPassive(t *testing.T) {
	jobs, err := telemetryStream()
	if err != nil {
		t.Fatal(err)
	}
	t.Run(schedulerKey(), func(t *testing.T) {
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

// telemetryFleetExports runs the metered fleet of telemetryFleetConfig over
// telemetryStream and returns its metrics dump and Chrome trace bytes.
func telemetryFleetExports() (metrics, trace []byte, err error) {
	jobs, err := telemetryStream()
	if err != nil {
		return nil, nil, err
	}
	m := telemetry.NewMeter(telemetrySamplePs)
	if _, err := fleet.Run(telemetryFleetConfig(m), jobs); err != nil {
		return nil, nil, err
	}
	if metrics, err = m.DumpJSON(); err != nil {
		return nil, nil, err
	}
	trace, err = m.Trace().Marshal()
	return metrics, trace, err
}

// TestTelemetryExportsDeterministic pins the export side: two same-seed
// metered fleet runs write byte-identical metrics and trace files, the
// trace parses as Chrome trace-event JSON with span and instant events,
// and the sampled queue-depth time series is present and non-empty.
func TestTelemetryExportsDeterministic(t *testing.T) {
	m1, t1, err := telemetryFleetExports()
	if err != nil {
		t.Fatal(err)
	}
	m2, t2, err := telemetryFleetExports()
	if err != nil {
		t.Fatal(err)
	}
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

// telemetryDigests is the SHA-256 of telemetryFleetExports' two byte
// streams. Run-vs-run identity alone would let a change that alters the
// exports consistently pass; the digests pin them across commits.
type telemetryDigests struct {
	MetricsSHA256 string `json:"metrics_sha256"`
	TraceSHA256   string `json:"trace_sha256"`
}

// TestTelemetryExportDigests enforces the committed export digests of the
// running scheduler in testdata/telemetry_digests.json, which is keyed by
// scheduler: the metrics dump differs between schedulers because it
// carries the engine's own edge and skip tallies.
func TestTelemetryExportDigests(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	goldenCells(t, pins[telemetryDigests]{
		path: "testdata/telemetry_digests.json",
		specs: []goldenSpec[telemetryDigests]{{schedulerKey(), func() (telemetryDigests, error) {
			metrics, trace, err := telemetryFleetExports()
			return telemetryDigests{digest(metrics), digest(trace)}, err
		}}},
		byScheduler: true,
	})
}

// TestScenarioCorpusMetered replays every pinned scenario with telemetry
// attached, one parallel subtest per scenario under the scheduler's name:
// zero drift allowed. Passivity over the whole greppable regression corpus,
// not just the synthetic streams above.
func TestScenarioCorpusMetered(t *testing.T) {
	scs := loadScenarioCorpus(t)
	t.Run(schedulerKey(), func(t *testing.T) {
		for _, sc := range scs {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				res, err := scenario.ReplayMetered(sc, "", telemetry.NewMeter(telemetrySamplePs))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Pass() {
					t.Errorf("drifted under telemetry:\n%s", res.Text())
				}
			})
		}
	})
}
