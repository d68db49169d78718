// Package trace records signal waveforms from a simulation and renders them
// as IEEE-1364 VCD files or as ASCII timing diagrams. It is used to
// regenerate the paper's Figure 7 (the 4-cycle translated read access).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Signal identifies one traced wire or bus.
type Signal struct {
	Name  string
	Width int // bits; 1 for a wire
}

// sample is one recorded value change.
type sample struct {
	time int64 // in timescale units
	val  uint64
}

// Recorder accumulates value changes for a set of signals.
type Recorder struct {
	TimescalePs int64 // picoseconds per time unit (e.g. one clock period)
	signals     []Signal
	series      [][]sample
	last        []uint64
	hasLast     []bool
}

// NewRecorder returns a Recorder with the given timescale in picoseconds.
func NewRecorder(timescalePs int64) *Recorder {
	if timescalePs <= 0 {
		timescalePs = 1
	}
	return &Recorder{TimescalePs: timescalePs}
}

// Declare registers a signal and returns its index for Record calls.
func (r *Recorder) Declare(name string, width int) int {
	if width <= 0 {
		width = 1
	}
	r.signals = append(r.signals, Signal{Name: name, Width: width})
	r.series = append(r.series, nil)
	r.last = append(r.last, 0)
	r.hasLast = append(r.hasLast, false)
	return len(r.signals) - 1
}

// Record stores the value of signal id at the given time (in timescale
// units). Consecutive identical values are coalesced.
func (r *Recorder) Record(id int, time int64, val uint64) {
	if id < 0 || id >= len(r.signals) {
		return
	}
	if r.hasLast[id] && r.last[id] == val {
		return
	}
	r.series[id] = append(r.series[id], sample{time: time, val: val})
	r.last[id] = val
	r.hasLast[id] = true
}

// vcdID returns a short printable identifier for signal i.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return fmt.Sprintf("s%d", i)
}

// WriteVCD emits the recording as a VCD document.
func (r *Recorder) WriteVCD(w io.Writer, module string) error {
	if module == "" {
		module = "top"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$timescale %d ps $end\n", r.TimescalePs)
	fmt.Fprintf(&b, "$scope module %s $end\n", module)
	for i, s := range r.signals {
		fmt.Fprintf(&b, "$var wire %d %s %s $end\n", s.Width, vcdID(i), s.Name)
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")

	// Merge all samples into a single time-ordered change list.
	type change struct {
		time int64
		id   int
		val  uint64
	}
	var changes []change
	for id, ser := range r.series {
		for _, s := range ser {
			changes = append(changes, change{s.time, id, s.val})
		}
	}
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].time < changes[j].time })
	lastTime := int64(-1)
	for _, c := range changes {
		if c.time != lastTime {
			fmt.Fprintf(&b, "#%d\n", c.time)
			lastTime = c.time
		}
		sig := r.signals[c.id]
		if sig.Width == 1 {
			fmt.Fprintf(&b, "%d%s\n", c.val&1, vcdID(c.id))
		} else {
			fmt.Fprintf(&b, "b%b %s\n", c.val, vcdID(c.id))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// valueAt returns the value of signal id at time t (last change at or before
// t) and whether any change had occurred by then.
func (r *Recorder) valueAt(id int, t int64) (uint64, bool) {
	ser := r.series[id]
	var (
		v  uint64
		ok bool
	)
	for _, s := range ser {
		if s.time > t {
			break
		}
		v, ok = s.val, true
	}
	return v, ok
}

// RenderASCII renders the recording between times from and to (inclusive,
// timescale units) as an ASCII timing diagram, one row per signal, one
// column per time unit. Single-bit signals render as underscores and
// overbars; buses render their hex value at each change.
func (r *Recorder) RenderASCII(from, to int64) string {
	var b strings.Builder
	nameW := 0
	for _, s := range r.signals {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for id, s := range r.signals {
		fmt.Fprintf(&b, "%-*s ", nameW, s.Name)
		if s.Width == 1 {
			for t := from; t <= to; t++ {
				v, ok := r.valueAt(id, t)
				switch {
				case !ok:
					b.WriteByte('.')
				case v != 0:
					b.WriteByte('#')
				default:
					b.WriteByte('_')
				}
			}
		} else {
			prev := uint64(0)
			prevOK := false
			for t := from; t <= to; t++ {
				v, ok := r.valueAt(id, t)
				switch {
				case !ok:
					b.WriteString(". ")
				case !prevOK || v != prev:
					fmt.Fprintf(&b, "|%x", v)
				default:
					b.WriteString("  ")
				}
				prev, prevOK = v, ok
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
