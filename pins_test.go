// Pinned sweeps: the simulator's measured results are part of its contract,
// and every pin file under testdata/ is checked by goldenCells. Each cell
// runs once, as a parallel subtest, under the package-default sim
// scheduler: a plain `go test` checks the event-driven scheduler against the
// pins and `SIM_SCHEDULER=lockstep go test -count=1 .` checks the lockstep
// reference against the same pins, so the two schedulers agree wherever
// both match the committed values. Regenerate every file from the
// reference with
//
//	SIM_SCHEDULER=lockstep go test -count=1 . -update-golden
package repro_test

import (
	"encoding/json"
	"flag"
	"maps"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// -update-golden rewrites every pin file a full run of its test measured,
// from the scheduler the run used.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the pin files under testdata/ from this run (a full run of each test only)")

// schedulerKey names the package-default sim scheduler the way the pin files
// keyed by scheduler do ("event" or "lockstep").
func schedulerKey() string {
	return strings.TrimSuffix(sim.NewEngine().Scheduler().String(), "-driven")
}

// goldenSpec is one pinned cell: its name in the pin file and the run that
// measures it.
type goldenSpec[C any] struct {
	name string
	run  func() (C, error)
}

// kneePin is the ramp knee a SATURATE or FLEET pin file holds ahead of its
// cells.
type kneePin struct {
	KneeRPS       float64 `json:"knee_rps"`
	SaturationRPS float64 `json:"saturation_rps,omitempty"` // the fleet file pins the knee only
}

// kneeFile is the layout of a pin file whose cells scale from a knee.
type kneeFile[C any] struct {
	kneePin
	Cells map[string]C `json:"cells"`
}

// pins describes one pin file and the specs that measure its cells.
type pins[C any] struct {
	path  string
	specs []goldenSpec[C]
	// knee, when set, is the knee this run measured and the specs scale
	// from; the file then has the kneeFile layout and pins it too.
	knee *kneePin
	// byScheduler marks a file keyed by scheduler: its one spec is the
	// running scheduler's entry, and the other entries are kept as pinned.
	byScheduler bool
	// accept, if set, asserts properties across the cells of a full run.
	accept func(t *testing.T, got map[string]C)
}

// goldenCells runs every spec of p as a parallel subtest and compares its
// cell with the one pinned under its name, exactly. Once every subtest has
// finished, a full run is held to p.accept and, under -update-golden,
// written back to p.path; a filtered or partial run writes nothing.
func goldenCells[C any](t *testing.T, p pins[C]) {
	var pinned map[string]C
	var knee kneePin
	data, err := os.ReadFile(p.path)
	switch {
	case err == nil:
		if p.knee != nil {
			var f kneeFile[C]
			err = json.Unmarshal(data, &f)
			pinned, knee = f.Cells, f.kneePin
		} else {
			err = json.Unmarshal(data, &pinned)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.path, err)
		}
	case !*updateGolden:
		t.Fatalf("missing pin file (run with -update-golden to create): %v", err)
	}
	if !*updateGolden {
		if p.knee != nil && *p.knee != knee {
			t.Errorf("knee drifted: got %+v, want %+v", *p.knee, knee)
		}
		if !p.byScheduler && len(pinned) != len(p.specs) {
			t.Errorf("%s pins %d cells, expected %d", p.path, len(pinned), len(p.specs))
		}
	}

	var mu sync.Mutex
	got := make(map[string]C, len(p.specs))
	t.Cleanup(func() { // after every parallel subtest
		if len(got) != len(p.specs) {
			if *updateGolden {
				t.Errorf("-update-golden needs a full run: ran %d of %d cells (drop the -run filter); %s not written",
					len(got), len(p.specs), p.path)
			}
			return
		}
		if p.accept != nil {
			p.accept(t, got)
		}
		if *updateGolden {
			writePins(t, p, pinned, got)
		}
	})
	for _, spec := range p.specs {
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			c, err := spec.run()
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got[spec.name] = c
			mu.Unlock()
			if *updateGolden {
				return
			}
			if w, ok := pinned[spec.name]; !ok {
				t.Errorf("cell missing from %s (re-run with -update-golden)", p.path)
			} else if !reflect.DeepEqual(c, w) {
				t.Errorf("cell drifted:\n got  %+v\n want %+v", c, w)
			}
		})
	}
}

// writePins writes a full run's cells to p.path in the file's layout.
func writePins[C any](t *testing.T, p pins[C], pinned, got map[string]C) {
	var v any = got
	switch {
	case p.knee != nil:
		v = kneeFile[C]{*p.knee, got}
	case p.byScheduler:
		if pinned == nil {
			pinned = map[string]C{}
		}
		maps.Copy(pinned, got)
		v = pinned
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(p.path, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Errorf("writing %s: %v", p.path, err)
		return
	}
	t.Logf("wrote %d cells to %s", len(got), p.path)
}
