// Package exp defines one runnable experiment per figure and table of the
// paper's evaluation (§4), plus ablations and the multi-coprocessor sessions experiment.
// Each experiment regenerates the same rows/series the paper reports;
// cmd/experiments renders them, and the root-level benchmarks wrap them.
package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro"
	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/stats"
)

// Result is one experiment's rendered outcome plus machine-readable series
// for the shape assertions in tests.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
	// Series maps a label (e.g. "speedup/4KB") to a value for tests.
	Series map[string]float64
}

// Experiment is a registered, runnable reproduction artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "FIG3", Title: "Motivating example: programming-model comparison (Figure 3)", Run: RunFig3},
		{ID: "FIG7", Title: "Translated read access timing (Figure 7)", Run: RunFig7},
		{ID: "FIG8", Title: "adpcmdecode execution times (Figure 8)", Run: RunFig8},
		{ID: "FIG9", Title: "IDEA execution times (Figure 9)", Run: RunFig9},
		{ID: "OVERHEAD", Title: "Virtualisation overheads (§4.1 text)", Run: RunOverhead},
		{ID: "PORT", Title: "Portability across devices (§4, §6)", Run: RunPortability},
		{ID: "POLICY", Title: "Ablation: replacement policies (§3.3)", Run: RunPolicyAblation},
		{ID: "BOUNCE", Title: "Ablation: double-transfer (bounce) page movement (§4.1)", Run: RunBounceAblation},
		{ID: "PIPELINE", Title: "Ablation: pipelined IMU (§4.1, §6)", Run: RunPipelineAblation},
		{ID: "PREFETCH", Title: "Ablation: sequential prefetch (§3.3)", Run: RunPrefetchAblation},
		{ID: "PAGESIZE", Title: "Ablation: dual-port RAM page size (§3.3)", Run: RunPageSizeAblation},
		{ID: "CHUNK", Title: "Ablation: hand-chunked baseline vs VIM (Figure 3)", Run: RunChunkAblation},
		{ID: "SESSIONS", Title: "Multi-coprocessor sessions behind one VIM (partition split sweep)", Run: RunSessions},
		{ID: "SERVE", Title: "Dynamic reconfiguration scheduler: multi-user job serving (policy x slots x config bandwidth)", Run: RunServe},
		{ID: "DEADLINE", Title: "Deadline-aware serving with pre-staged reconfiguration (policy x staging x bandwidth x budget)", Run: RunDeadline},
		{ID: "SATURATE", Title: "Open-loop saturation: offered-RPS ramp, overload detection and admission control", Run: RunSaturate},
		{ID: "FLEET", Title: "Fleet-scale serving: dispatch policy x pool size over independent boards", Run: RunFleet},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render formats a result for terminal output.
func Render(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Series) > 0 {
		keys := make([]string, 0, len(r.Series))
		for k := range r.Series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("series:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.3f", k, r.Series[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ms formats picoseconds as milliseconds.
func ms(ps float64) string { return fmt.Sprintf("%.2f", ps/1e9) }

// wholeItems rounds size input bytes of a down to whole work items, and
// fails when they hold none.
func wholeItems(a *apps.App, size int) (int, error) {
	item := a.Objects[0].ItemBytes
	if size < item {
		return 0, fmt.Errorf("exp: %s input of %d bytes holds no whole %d-byte work item", a.Name, size, item)
	}
	return size - size%item, nil
}

// Run executes one single run of the named application over size input
// bytes (rounded down to whole work items; a size that holds none is an
// error) drawn from seed, on a fresh board, and checks its output against
// the application's golden model.
// Mode "vim" maps the objects through the virtual interface (loaded, when
// not nil, runs right after FPGA_LOAD: vimsim installs its waveform
// recorder there); "sw" runs the pure-software version; "normal" and
// "chunked" are the no-VIM baselines on cfg's board, single-shot (an error
// wrapping baseline.ErrExceedsMemory when the data does not fit) and
// hand-chunked.
func Run(cfg repro.Config, app, mode string, size int, seed int64, loaded func(*repro.Process) error) (*core.Report, error) {
	a, ok := apps.Get(app)
	if !ok {
		return nil, fmt.Errorf("exp: unknown app %q", app)
	}
	size, err := wholeItems(a, size)
	if err != nil {
		return nil, err
	}
	in := make([]byte, a.InBytes(size))
	rand.New(rand.NewSource(seed)).Read(in)
	want := make([]byte, a.Bytes(a.Out(), size))
	a.Golden(in, want)
	switch mode {
	case "vim", "sw":
		return runProcess(cfg, a, mode, size, in, want, loaded)
	case "normal", "chunked":
		return runBaseline(cfg.Board, a, mode, size, in, want)
	}
	return nil, fmt.Errorf("exp: unknown mode %q", mode)
}

// runProcess runs a through a user process: the virtual interface or the
// pure-software version.
func runProcess(cfg repro.Config, a *apps.App, mode string, size int, in, want []byte, loaded func(*repro.Process) error) (*core.Report, error) {
	sys, err := repro.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	p, err := sys.NewProcess(a.Name)
	if err != nil {
		return nil, err
	}
	bufs := make([]repro.Buffer, len(a.Objects))
	for i := range bufs {
		if bufs[i], err = p.Alloc(a.Bytes(i, size)); err != nil {
			return nil, err
		}
	}
	for i, b := range bufs {
		if data := a.Input(in, i, size); data != nil {
			if err := b.Write(data); err != nil {
				return nil, err
			}
		}
	}
	var rep *core.Report
	if mode == "sw" {
		rep, err = a.SW(p, bufs, in)
	} else {
		rep, err = runVIM(sys, p, a, size, in, bufs, loaded)
	}
	if err != nil {
		return nil, err
	}
	at, err := sys.Board().Kern.MismatchUser(bufs[a.Out()].Addr(), want)
	if err != nil {
		return nil, err
	}
	if at >= 0 {
		return nil, fmt.Errorf("exp: %s %s output diverges from the golden model at byte %d", a.Name, mode, at)
	}
	return rep, nil
}

// runVIM loads a's bitstream, maps its objects and runs FPGA_EXECUTE.
func runVIM(sys *repro.System, p *repro.Process, a *apps.App, size int, in []byte, bufs []repro.Buffer, loaded func(*repro.Process) error) (*core.Report, error) {
	if err := p.FPGALoad(a.Bitstream(sys.Board().Spec.Name)); err != nil {
		return nil, err
	}
	if loaded != nil {
		if err := loaded(p); err != nil {
			return nil, err
		}
	}
	for i, o := range a.Objects {
		if err := p.FPGAMapObject(int(o.ID), bufs[i], o.Dir); err != nil {
			return nil, err
		}
	}
	return p.FPGAExecute(a.Params(nil, in, a.Items(size))...)
}

// runBaseline runs a without the VIM on a fresh board, its objects as
// baseline streams.
func runBaseline(board string, a *apps.App, mode string, size int, in, want []byte) (*core.Report, error) {
	spec, ok := platform.SpecByName(board)
	if !ok {
		return nil, fmt.Errorf("exp: unknown board %q", board)
	}
	r, err := baseline.NewRunner(spec, a.Bitstream(spec.Name))
	if err != nil {
		return nil, err
	}
	streams := make([]*baseline.Stream, len(a.Objects))
	for i, o := range a.Objects {
		streams[i] = &baseline.Stream{ID: o.ID, Dir: o.Dir, ItemBytes: o.ItemBytes, Data: a.Input(in, i, size)}
	}
	params := func(done, items int) []uint32 {
		p := a.Params(nil, in, items)
		if done > 0 && a.Resume != nil {
			p = a.Resume(p, in, streams[a.Out()].Out, done)
		}
		return p
	}
	run := r.RunChunked
	if mode == "normal" {
		run = r.RunSingleShot
	}
	rep, err := run(a.Items(size), streams, params)
	if err != nil {
		return nil, err
	}
	if got := streams[a.Out()].Out; !bytes.Equal(got, want) {
		at := 0
		for got[at] == want[at] {
			at++
		}
		return nil, fmt.Errorf("exp: %s %s output diverges from the golden model at byte %d", a.Name, mode, at)
	}
	return rep, nil
}
