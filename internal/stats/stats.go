// Package stats provides the execution-time accounting used throughout the
// reproduction: a Timeline that accumulates the paper's measured components
// (§4.1) and formatting helpers for the experiment tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Component is one bucket of the execution-time breakdown.
type Component int

const (
	// HW is time spent in the coprocessor and the IMU (computation,
	// translated memory accesses, stalls) — the paper's "hardware
	// execution time".
	HW Component = iota
	// SWDP is operating-system time moving data between user-space memory
	// and the dual-port RAM — "software execution time for the dual-port
	// RAM management".
	SWDP
	// SWIMU is operating-system time interrogating and reprogramming the
	// IMU (fault decode, TLB updates, restart) — "software execution time
	// for the IMU management".
	SWIMU
	// SWOS is residual operating-system overhead (system-call entry/exit,
	// process wake-up). The paper folds this into its software components;
	// reports keep it separate and also publish the folded view.
	SWOS

	numComponents
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case HW:
		return "HW"
	case SWDP:
		return "SW(DP)"
	case SWIMU:
		return "SW(IMU)"
	case SWOS:
		return "SW(OS)"
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Timeline accumulates picoseconds per component. The zero value is ready
// to use.
type Timeline struct {
	ps [numComponents]float64
}

// Add accumulates d picoseconds into component c.
func (t *Timeline) Add(c Component, ps float64) {
	if c < 0 || c >= numComponents || ps < 0 {
		panic(fmt.Sprintf("stats: bad Add(%v, %v)", c, ps))
	}
	t.ps[c] += ps
}

// AddCycles accumulates n cycles of a freqHz clock into component c.
func (t *Timeline) AddCycles(c Component, n int64, freqHz int64) {
	t.Add(c, float64(n)*1e12/float64(freqHz))
}

// Ps returns the accumulated picoseconds of component c.
func (t *Timeline) Ps(c Component) float64 { return t.ps[c] }

// Duration returns component c as a time.Duration.
func (t *Timeline) Duration(c Component) time.Duration {
	return time.Duration(t.ps[c] / 1e3 * float64(time.Nanosecond))
}

// TotalPs returns the sum over all components.
func (t *Timeline) TotalPs() float64 {
	var s float64
	for _, v := range t.ps {
		s += v
	}
	return s
}

// Fraction returns component c as a fraction of the total (0 if empty).
func (t *Timeline) Fraction(c Component) float64 {
	tot := t.TotalPs()
	if tot == 0 {
		return 0
	}
	return t.ps[c] / tot
}

// Reset zeroes the timeline.
func (t *Timeline) Reset() { t.ps = [numComponents]float64{} }

// Ms formats picoseconds as milliseconds with two decimals.
func Ms(ps float64) string { return fmt.Sprintf("%.2f ms", ps/1e9) }

// Table is a simple fixed-column text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (tb *Table) AddRow(cells ...string) { tb.Rows = append(tb.Rows, cells) }

// Render formats the table with aligned columns.
func (tb *Table) Render() string {
	widths := make([]int, len(tb.Headers))
	for i, h := range tb.Headers {
		widths[i] = len(h)
	}
	for _, r := range tb.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if tb.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", tb.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(tb.Headers)
	sep := make([]string, len(tb.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range tb.Rows {
		writeRow(r)
	}
	return b.String()
}

// NearestRank returns the nearest-rank p-quantile (0 < p <= 1) of vals,
// which must already be sorted ascending. An empty input has no latency
// population to rank, so the result is an explicit 0 — never an index panic
// or a NaN — letting aggregate reports over an empty (for example,
// all-rejected) completion set stay zero-valued.
func NearestRank(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: NearestRank quantile %v outside (0,1]", p))
	}
	i := int(math.Ceil(p*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// Histogram is a fixed-bucket distribution accumulator for the telemetry
// layer: samples land in the first bucket whose upper bound is >= the value,
// with an implicit +Inf bucket past the last bound. Buckets make the state
// mergeable across independent runs (a fleet folds per-board histograms into
// one) at the cost of quantile resolution — Quantile interpolates within the
// winning bucket. All state is exported so snapshots serialise directly.
type Histogram struct {
	Bounds []float64 // bucket upper bounds, strictly ascending
	Counts []uint64  // len(Bounds)+1; the last bucket is (Bounds[last], +Inf)
	Sum    float64
	N      uint64
	Min    float64 // valid while N > 0
	Max    float64 // valid while N > 0
}

// NewHistogram returns a histogram over the given bucket upper bounds, which
// must be strictly ascending and non-empty.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %g <= %g",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
}

// Observe accumulates one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	h.Sum += v
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
}

// Merge folds o into h. The two histograms must share identical bucket
// bounds; merging is commutative and associative in the bucket counts and N
// (exact integer adds), and associative in Sum up to float rounding.
func (h *Histogram) Merge(o *Histogram) error {
	if len(o.Bounds) != len(h.Bounds) {
		return fmt.Errorf("stats: merging histograms with %d vs %d bounds", len(o.Bounds), len(h.Bounds))
	}
	for i := range h.Bounds {
		if h.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("stats: merging histograms with different bounds at %d: %g vs %g",
				i, h.Bounds[i], o.Bounds[i])
		}
	}
	if o.N > 0 {
		if h.N == 0 || o.Min < h.Min {
			h.Min = o.Min
		}
		if h.N == 0 || o.Max > h.Max {
			h.Max = o.Max
		}
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Sum += o.Sum
	h.N += o.N
	return nil
}

// Mean returns the arithmetic mean of the observed samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile estimates the p-quantile (0 < p <= 1) from the bucket counts:
// the bucket holding the nearest-rank sample is located exactly, and the
// value is interpolated linearly inside it (clamped to the observed Min/Max,
// so a single-sample histogram reports that sample). An empty histogram
// reports an explicit 0, matching NearestRank.
func (h *Histogram) Quantile(p float64) float64 {
	if h.N == 0 {
		return 0
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("stats: histogram quantile %v outside (0,1]", p))
	}
	rank := uint64(math.Ceil(p * float64(h.N)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		if cum+c < rank {
			cum += c
			continue
		}
		// The rank-th sample sits in bucket i: interpolate between the
		// bucket's edges by the rank's position inside it, clamped to the
		// observed extremes (the implicit +Inf bucket has no upper edge).
		lo := h.Min
		if i > 0 && h.Bounds[i-1] > lo {
			lo = h.Bounds[i-1]
		}
		hi := h.Max
		if i < len(h.Bounds) && h.Bounds[i] < hi {
			hi = h.Bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := float64(rank-cum) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Max
}

// Bar renders an ASCII stacked bar of width chars for the given component
// picosecond values against a full-scale value (Figure 8/9 style charts).
func Bar(width int, fullScalePs float64, parts ...float64) string {
	if width <= 0 || fullScalePs <= 0 {
		return ""
	}
	glyphs := []byte{'#', '=', '.', '~'}
	var b strings.Builder
	for i, p := range parts {
		n := int(p / fullScalePs * float64(width))
		g := glyphs[i%len(glyphs)]
		for j := 0; j < n; j++ {
			b.WriteByte(g)
		}
	}
	return b.String()
}
