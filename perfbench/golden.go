package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// golden is one of the repository's pinned result files: named cells of
// field -> value, plus the saturation knee the serving files scale their
// offered rate from. The benchmark reads the expected values from these
// files and never carries copies of them.
type golden struct {
	KneeRPS float64                       `json:"knee_rps"`
	Cells   map[string]map[string]float64 `json:"cells"`
}

// readGolden loads testdata/<name>. golden_cells.json is a flat map of
// cells; the serving files wrap theirs next to the knee.
func readGolden(name string) (*golden, error) {
	path := filepath.Join("testdata", name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pinned values: %w", err)
	}
	g := &golden{}
	if err := json.Unmarshal(data, g); err != nil || g.Cells == nil {
		g = &golden{}
		if err := json.Unmarshal(data, &g.Cells); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
	}
	if len(g.Cells) == 0 {
		return nil, fmt.Errorf("%s pins no cells", path)
	}
	return g, nil
}

// cell returns the pinned fields of the named cell.
func (g *golden) cell(name string) (map[string]float64, error) {
	c, ok := g.Cells[name]
	if !ok {
		return nil, fmt.Errorf("no pinned cell %q", name)
	}
	return c, nil
}

// checkPinned compares a measured cell with its pinned values field for
// field: the same field set, every value bit-identical.
func checkPinned(cell string, got, want map[string]float64) error {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			return fmt.Errorf("%s: field %s is not pinned", cell, k)
		case !gok:
			return fmt.Errorf("%s: pinned field %s was not measured", cell, k)
		case g != w:
			return fmt.Errorf("%s: %s = %v, pinned %v", cell, k, g, w)
		}
	}
	return nil
}
