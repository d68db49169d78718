// Scenario corpus replay: every recorded scenario under testdata/scenarios/
// is a pinned end-to-end run — full config, arrival stream, per-job
// dispatch decisions and final report — and this driver replays each one
// bit for bit. Where the golden tables pin aggregate metrics per cell, the
// corpus pins the step-by-step trajectory, so a regression surfaces as a first-divergence diff ("job 17 landed on
// slot 1, recorded slot 0") instead of a bare metric delta.
//
// Refresh a scenario after an intentional behaviour change with:
//
//	go run ./cmd/vimsim -mode record -as <kind> -scenario testdata/scenarios/<name>.json ...
//
// (each scenario file's "description" field records the exact command that
// produced it).
package repro_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/scenario"
)

const scenarioDir = "testdata/scenarios"

// corpusFloor is the minimum corpus size; shrinking the corpus below the
// seeded set should be a deliberate, visible act.
const corpusFloor = 8

func loadScenarioCorpus(t *testing.T) []*scenario.Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) < corpusFloor {
		t.Fatalf("scenario corpus has %d files, want at least %d", len(paths), corpusFloor)
	}
	scs := make([]*scenario.Scenario, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if scs[i], err = scenario.Parse(data); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return scs
}

// TestScenarioCorpus replays the committed scenario corpus under the
// package-default scheduler, one parallel subtest per scenario under the
// scheduler's name. Every scenario must reproduce exactly (its own match
// mode; the seeded corpus is strict) — under each scheduler, so the corpus
// doubles as another whole-system scheduler-equivalence check.
func TestScenarioCorpus(t *testing.T) {
	scs := loadScenarioCorpus(t)
	t.Run(schedulerKey(), func(t *testing.T) {
		for _, sc := range scs {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				res, err := scenario.Replay(sc, "")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Pass() {
					t.Errorf("scenario did not reproduce:\n%s", res.Text())
				}
				if res.Steps == 0 {
					t.Errorf("replay matched zero stream steps; scenario pins nothing")
				}
			})
		}
	})
}
