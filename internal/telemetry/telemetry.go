// Package telemetry is the deterministic, strictly passive observability
// layer: a metrics registry (counters, gauges, histograms), a
// simulated-time sampler that snapshots gauges into per-run time series,
// and exporters for Prometheus-style text, a machine-readable JSON dump,
// and Chrome trace-event JSON (Perfetto-loadable).
//
// # Passivity contract
//
// A Meter observes; it never steers. Instrumented code hands the meter
// values it already computed — it must not branch on the meter's presence,
// read anything back from it, or do extra simulated work to feed it. The
// layer is keyed entirely on simulated time (never the wall clock), so
// every exported byte is a pure function of (configuration, seed): golden
// cells and recorded scenarios stay bit-identical with telemetry off and
// on, which the differential tests at the repository root prove
// (TestTelemetryPassive).
//
// # Naming and labels
//
// Metric names follow the Prometheus convention (snake_case, _total suffix
// on counters, unit suffix like _ps on gauges and histograms). A metric may
// carry labels ("slot"="2", "path"="staged"); each distinct label set is
// its own series. Registration is implicit: the first Count/Set/Observe
// under a name creates the series. All iteration orders are sorted, so
// exports are deterministic without any care from call sites.
//
// # Concurrency
//
// A Meter is single-goroutine, like the sim engine it observes. Fleet runs
// give each board its own child meter and fold them back into the parent
// with Absorb under a distinguishing label, in board order — deterministic
// regardless of goroutine interleaving.
package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// DefaultLatencyBoundsPs is the bucket layout used for latency-flavoured
// histograms (queue wait, end-to-end latency): roughly logarithmic from
// 1 µs to 10 s in picoseconds, wide enough for every calibrated board.
var DefaultLatencyBoundsPs = []float64{
	1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13,
}

// Labels is one metric's label set. Call sites pass alternating key/value
// strings to the Meter methods; the canonical form is sorted by key.
type Labels map[string]string

// keyOf renders a deterministic series key: name{k1="v1",k2="v2"} with
// keys sorted. It doubles as the Prometheus exposition form.
func keyOf(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// labelsOf folds alternating key/value arguments into a Labels map.
func labelsOf(kv []string) Labels {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	l := make(Labels, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		l[kv[i]] = kv[i+1]
	}
	return l
}

// series is one (name, labels) instrument instance.
type series struct {
	name   string
	labels Labels
	kind   string // "counter" | "gauge" | "histogram"

	counter uint64
	gauge   float64
	// gaugeFn, when set, makes the gauge live: the sampler and the
	// snapshot exporters read the function instead of the stored value.
	// Used for values the instrumented code already maintains (queue
	// length, VIM fault counter) so call sites don't have to mirror them.
	gaugeFn func() float64
	hist    *stats.Histogram

	// samples is the gauge's sampled time series (filled by the sampler).
	samples []Sample
}

func (s *series) gaugeValue() float64 {
	if s.gaugeFn != nil {
		return s.gaugeFn()
	}
	return s.gauge
}

// Sample is one sampled gauge value at a simulated-time boundary.
type Sample struct {
	AtPs  float64 `json:"at_ps"`
	Value float64 `json:"value"`
}

// Meter is the metrics registry plus sampler state. The zero value is not
// usable; call NewMeter. A nil *Meter is the off switch: every method is a
// cheap no-op, so instrumented code calls unconditionally.
type Meter struct {
	series map[string]*series
	order  []string // registration order, for stable iteration before sort

	// Sampler state: gauges are snapshotted at every multiple of
	// intervalPs as simulated time advances past it (see Advance).
	intervalPs float64
	nextPs     float64

	trace *Trace
}

// NewMeter returns an empty meter sampling gauges every intervalPs of
// simulated time (intervalPs <= 0 disables sampling).
func NewMeter(intervalPs float64) *Meter {
	return &Meter{
		series:     make(map[string]*series),
		intervalPs: intervalPs,
		nextPs:     intervalPs,
		trace:      NewTrace(),
	}
}

// Child returns an empty meter with the same sampling interval, for a
// concurrent sub-run (a fleet board) whose results are folded back into
// this meter with Absorb. A nil meter's child is nil.
func (m *Meter) Child() *Meter {
	if m == nil {
		return nil
	}
	return NewMeter(m.intervalPs)
}

// Trace returns the meter's trace-event collector (nil on a nil meter).
func (m *Meter) Trace() *Trace {
	if m == nil {
		return nil
	}
	return m.trace
}

// get returns the series for (name, labels), creating it with the given
// kind on first use and rejecting cross-kind reuse of a name+labels key.
func (m *Meter) get(name, kind string, kv []string) *series {
	labels := labelsOf(kv)
	key := keyOf(name, labels)
	s, ok := m.series[key]
	if !ok {
		s = &series{name: name, labels: labels, kind: kind}
		if kind == "histogram" {
			s.hist = stats.NewHistogram(DefaultLatencyBoundsPs...)
		}
		m.series[key] = s
		m.order = append(m.order, key)
		return s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, used as %s", key, s.kind, kind))
	}
	return s
}

// Count adds n to the counter name{labels...}.
func (m *Meter) Count(name string, n uint64, kv ...string) {
	if m == nil {
		return
	}
	m.get(name, "counter", kv).counter += n
}

// Set sets the gauge name{labels...} to v.
func (m *Meter) Set(name string, v float64, kv ...string) {
	if m == nil {
		return
	}
	s := m.get(name, "gauge", kv)
	s.gaugeFn = nil
	s.gauge = v
}

// SetFunc binds the gauge name{labels...} to a live read function; the
// sampler and exporters call it instead of a stored value. The function
// must be pure with respect to simulated state (no wall clock, no
// randomness) and must stay valid until the final export.
func (m *Meter) SetFunc(name string, fn func() float64, kv ...string) {
	if m == nil {
		return
	}
	m.get(name, "gauge", kv).gaugeFn = fn
}

// Observe adds one sample to the histogram name{labels...} (default
// latency bucket bounds).
func (m *Meter) Observe(name string, v float64, kv ...string) {
	if m == nil {
		return
	}
	m.get(name, "histogram", kv).hist.Observe(v)
}

// Advance moves the sampler to simulated time nowPs: every un-filled
// boundary k·interval <= nowPs gets one sample of every gauge's current
// value. Call sites invoke it at their natural observation points (the
// serving loop's arrival/completion/dispatch instants), so a sample at
// boundary B records the state as observed at the first instrumentation
// point at or after B — a deterministic function of the run, documented as
// such rather than pretending the loop was interrupted exactly at B.
func (m *Meter) Advance(nowPs float64) {
	if m == nil || m.intervalPs <= 0 {
		return
	}
	for m.nextPs <= nowPs {
		at := m.nextPs
		for _, key := range m.order {
			s := m.series[key]
			if s.kind != "gauge" {
				continue
			}
			s.samples = append(s.samples, Sample{AtPs: at, Value: s.gaugeValue()})
		}
		m.nextPs += m.intervalPs
	}
}

// Absorb folds child into m under an extra distinguishing label (for
// example "board"="3"): counters add, histograms merge, and gauges and
// their sampled series copy over. Fleet aggregation calls it in board
// order after all goroutines joined, so the fold is deterministic. Child
// live gauges are pinned to their final value at absorb time.
func (m *Meter) Absorb(child *Meter, labelKey, labelValue string) {
	if m == nil || child == nil {
		return
	}
	for _, key := range child.order {
		cs := child.series[key]
		names := make([]string, 0, len(cs.labels))
		for k := range cs.labels {
			names = append(names, k)
		}
		sort.Strings(names)
		kv := make([]string, 0, 2*len(names)+2)
		for _, k := range names {
			kv = append(kv, k, cs.labels[k])
		}
		kv = append(kv, labelKey, labelValue)
		switch cs.kind {
		case "counter":
			m.Count(cs.name, cs.counter, kv...)
		case "gauge":
			s := m.get(cs.name, "gauge", kv)
			s.gaugeFn = nil
			s.gauge = cs.gaugeValue()
			s.samples = append(s.samples, cs.samples...)
		case "histogram":
			s := m.get(cs.name, "histogram", kv)
			if err := s.hist.Merge(cs.hist); err != nil {
				panic(fmt.Sprintf("telemetry: absorb %s: %v", cs.name, err))
			}
		}
	}
	m.trace.absorb(child.trace)
}

// sortedKeys returns every series key in sorted order (export order).
func (m *Meter) sortedKeys() []string {
	keys := append([]string(nil), m.order...)
	sort.Strings(keys)
	return keys
}
