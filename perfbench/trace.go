package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every host-clock reading the benchmark takes.
var epoch = time.Now() //lint:allow walltime the benchmark measures host time by definition

// now is the host clock, as an offset from process start.
func now() time.Duration {
	return time.Since(epoch) //lint:allow walltime the benchmark measures host time by definition
}

// span is one timed call the benchmark makes into a layer's public API.
// Spans of one op share Op; set-up spans carry a negative Op.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced ops run: every call site is the
// same code either way.
type tracer struct {
	op    int
	spans []span
	open  []int
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i (the innermost open one) and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.End = now()
	t.open = t.open[:len(t.open)-1]
	return s.End - s.Start
}

// selfTimes sums, per op, each span name's self time: the span's duration
// minus the part its children cover. Children run on the span's own
// goroutine and nest strictly, so that part is the sum of their durations.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	self := map[int]map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if self[s.Op] == nil {
			self[s.Op] = map[string]time.Duration{}
		}
		d := s.End - s.Start
		self[s.Op][s.Name] += d
		if s.Parent >= 0 {
			self[s.Op][t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
