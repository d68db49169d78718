package exp

import (
	"errors"
	"fmt"
	"strings"

	"repro"
	"repro/internal/baseline"
	"repro/internal/copro"
	"repro/internal/core"
	"repro/internal/imu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunFig3 reproduces the motivating example: the same vector addition as
// (1) pure software, (2) hand-managed typical coprocessor, (3) VIM-based
// coprocessor — comparing both run time and the programming burden the
// paper's Figure 3 illustrates (lines of platform-aware code).
func RunFig3() (*Result, error) {
	const n = fig3Elements
	swRep, typRep, vimRep, err := Fig3Reports()
	if err != nil {
		return nil, err
	}

	tb := &stats.Table{
		Title:   fmt.Sprintf("vector addition, %d elements (3 x %d KB objects)", n, 4*n/1024),
		Headers: []string{"version", "total ms", "platform-aware app code", "notes"},
	}
	tb.AddRow("pure SW", ms(swRep.TotalPs()), "0 lines", "add_vectors(A,B,C,SIZE)")
	tb.AddRow("typical coprocessor", ms(typRep.TotalPs()), "~10 lines (chunk loop)", "explicit DP_SIZE chunking, copies")
	tb.AddRow("VIM-based coprocessor", ms(vimRep.TotalPs()), "4 lines (map+execute)", "no platform details in app code")

	return &Result{
		ID:     "FIG3",
		Title:  "Motivating example",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"the VIM version keeps the software shape of the pure-SW call while handling datasets larger than the DP RAM",
		},
		Series: map[string]float64{
			"sw_ms":  swRep.TotalPs() / 1e9,
			"typ_ms": typRep.TotalPs() / 1e9,
			"vim_ms": vimRep.TotalPs() / 1e9,
		},
	}, nil
}

// fig3Elements is Figure 3's vector length: 3 x 16 KB objects exceed the
// DP RAM.
const fig3Elements = 4096

// Fig3Reports runs Figure 3's three versions of the vector addition and
// returns their reports: pure software, the hand-chunked typical
// coprocessor and the VIM-based one.
func Fig3Reports() (sw, typ, vim *core.Report, err error) {
	run := func(mode string) (*core.Report, error) {
		return Run(repro.Config{}, "vecadd", mode, 4*fig3Elements, 303, nil)
	}
	if sw, err = run("sw"); err != nil {
		return nil, nil, nil, err
	}
	if vim, err = run("vim"); err != nil {
		return nil, nil, nil, err
	}
	if typ, err = run("chunked"); err != nil {
		return nil, nil, nil, err
	}
	return sw, typ, vim, nil
}

// Fig7Bench is the Figure 7 testbench after its run: one 32-bit read,
// translated by a single-channel IMU at 40 MHz, with the CP_* port
// waveform recorded one column per cycle.
type Fig7Bench struct {
	Rec      *trace.Recorder
	AccessAt int64  // first edge with CP_ACCESS high (-1: never)
	HitAt    int64  // first edge with CP_TLBHIT high (-1: never)
	LastEdge int64  // last recorded edge
	Data     uint32 // the value the read returned
}

// RunFig7Bench builds the Figure 7 testbench with an IMU in the given mode
// and runs it until the read completes.
func RunFig7Bench(mode imu.Mode) (*Fig7Bench, error) {
	dp, err := mem.NewDPRAM(16*1024, 2*1024)
	if err != nil {
		return nil, err
	}
	u, err := imu.New(imu.Config{PageShift: 11, Entries: 8, Mode: mode}, dp)
	if err != nil {
		return nil, err
	}
	port := copro.NewPort()
	u.Bind(port)
	if err := u.SetEntry(0, imu.TLBEntry{Valid: true, Obj: 2, VPage: 0, Frame: 3}); err != nil {
		return nil, err
	}
	if err := dp.WriteB(dp.PageBase(3)+0x10, 0xcafe0042, 0xf); err != nil {
		return nil, err
	}

	// 25 ns: one 40 MHz cycle per column.
	b := &Fig7Bench{Rec: trace.NewRecorder(25_000), AccessAt: -1, HitAt: -1}
	sigClk := b.Rec.Declare("clk", 1)
	sigAddr := b.Rec.Declare("cp_addr", 24)
	sigAcc := b.Rec.Declare("cp_access", 1)
	sigHit := b.Rec.Declare("cp_tlbhit", 1)
	sigDin := b.Rec.Declare("cp_din", 32)
	u.SetTrace(&imu.TraceHooks{OnEdge: func(cy uint64, cp copro.CPOut, out copro.IMUOut) {
		t := int64(cy)
		b.LastEdge = t
		b.Rec.Record(sigClk, t, 1)
		b.Rec.Record(sigAddr, t, uint64(cp.Addr))
		b.Rec.Record(sigAcc, t, uint64(boolTo01(cp.Access)))
		b.Rec.Record(sigHit, t, uint64(boolTo01(out.TLBHit)))
		b.Rec.Record(sigDin, t, uint64(out.DIn))
		if cp.Access && b.AccessAt < 0 {
			b.AccessAt = t
		}
		if out.TLBHit && b.HitAt < 0 {
			b.HitAt = t
		}
	}})

	eng := sim.NewEngine()
	dom := eng.NewDomain("imu", 40_000_000)
	m := copro.NewMem(port)
	issued := false
	dom.Attach(sim.TickerFunc{
		OnEval: func() {
			m.Step()
			if m.Completed() {
				b.Data = m.Data()
			}
			if !issued && m.Ready() {
				m.Read(2, 0x10, copro.Size32)
				issued = true
			}
			m.Drive(false, false)
		},
		OnUpdate: func() { m.Commit() },
	})
	dom.Attach(u)
	if _, err := eng.RunUntil(func() bool { return b.Data != 0 }, 100); err != nil {
		return nil, err
	}
	return b, nil
}

// RunFig7 regenerates the timing diagram of a translated coprocessor read
// access: the Figure 7 testbench records the CP_* port waveform and the
// result asserts the 4-cycle latency.
func RunFig7() (*Result, error) {
	b, err := RunFig7Bench(imu.MultiCycle)
	if err != nil {
		return nil, err
	}
	latency := b.HitAt - b.AccessAt
	tb := &stats.Table{
		Title:   "translated read access",
		Headers: []string{"event", "cycle"},
	}
	tb.AddRow("CP_ACCESS asserted", fmt.Sprintf("%d", b.AccessAt))
	tb.AddRow("CP_TLBHIT + data valid", fmt.Sprintf("%d", b.HitAt))
	tb.AddRow("latency (cycles)", fmt.Sprintf("%d", latency))

	wave := b.Rec.RenderASCII(0, b.HitAt+2)
	return &Result{
		ID:     "FIG7",
		Title:  "Coprocessor read access timing",
		Tables: []*stats.Table{tb},
		Notes: []string{
			"data is ready on the 4th rising edge after the access is generated (paper Figure 7)",
			"waveform:\n" + wave,
		},
		Series: map[string]float64{
			"latency_cycles": float64(latency),
			"read_value_ok":  boolTo01(b.Data == 0xcafe0042),
		},
	}, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RunFig8 regenerates the adpcmdecode measurements: pure software vs the
// VIM-based coprocessor for 2/4/8 KB inputs, with the three stacked
// components of the coprocessor bars.
func RunFig8() (*Result, error) {
	sizes := []int{2048, 4096, 8192}
	tb := &stats.Table{
		Title: "adpcmdecode (coprocessor + IMU @ 40 MHz, output = 4x input)",
		Headers: []string{"input", "SW ms", "VIM total ms", "HW ms", "SW(DP) ms",
			"SW(IMU) ms", "speedup", "faults"},
	}
	series := map[string]float64{}
	var notes []string
	for _, n := range sizes {
		seed := int64(800 + n)
		swRep, err := Run(repro.Config{}, "adpcm", "sw", n, seed, nil)
		if err != nil {
			return nil, err
		}
		hwRep, err := Run(repro.Config{}, "adpcm", "vim", n, seed, nil)
		if err != nil {
			return nil, err
		}
		speedup := swRep.TotalPs() / hwRep.TotalPs()
		label := fmt.Sprintf("%dKB", n/1024)
		tb.AddRow(label, ms(swRep.TotalPs()), ms(hwRep.TotalPs()), ms(hwRep.HWPs),
			ms(hwRep.SWDPPs), ms(hwRep.SWIMUPs+hwRep.SWOSPs),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%d", hwRep.VIM.Faults))
		series["sw_ms/"+label] = swRep.TotalPs() / 1e9
		series["vim_ms/"+label] = hwRep.TotalPs() / 1e9
		series["speedup/"+label] = speedup
		series["faults/"+label] = float64(hwRep.VIM.Faults)
		series["swimu_frac/"+label] = (hwRep.SWIMUPs + hwRep.SWOSPs) / hwRep.TotalPs()
	}
	notes = append(notes,
		"paper speedups: 1.5x / 1.5x / 1.6x; no page faults at 2 KB, faults from 4 KB onwards")
	return &Result{ID: "FIG8", Title: "adpcmdecode execution times",
		Tables: []*stats.Table{tb}, Notes: notes, Series: series}, nil
}

// RunFig9 regenerates the IDEA measurements: pure software, the normal
// (single-shot, no-OS) coprocessor, and the VIM-based coprocessor for
// 4/8/16/32 KB inputs. The normal version exceeds the available memory at
// 16 KB and beyond, exactly as in the paper.
func RunFig9() (*Result, error) {
	sizes := []int{4096, 8192, 16384, 32768}
	tb := &stats.Table{
		Title: "IDEA (core @ 6 MHz, IMU + memory @ 24 MHz)",
		Headers: []string{"input", "SW ms", "normal ms", "VIM ms", "HW ms",
			"SW(DP) ms", "SW(IMU) ms", "speedup(norm)", "speedup(VIM)", "faults"},
	}
	series := map[string]float64{}
	for _, n := range sizes {
		seed := int64(900 + n)
		swRep, err := Run(repro.Config{}, "idea", "sw", n, seed, nil)
		if err != nil {
			return nil, err
		}
		normRep, err := Run(repro.Config{}, "idea", "normal", n, seed, nil)
		if err != nil && !errors.Is(err, baseline.ErrExceedsMemory) {
			return nil, err
		}
		vimRep, err := Run(repro.Config{}, "idea", "vim", n, seed, nil)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dKB", n/1024)
		normMs := "exceeds memory"
		normSpeed := "—"
		if normRep != nil {
			normMs = ms(normRep.TotalPs())
			normSpeed = fmt.Sprintf("%.1fx", swRep.TotalPs()/normRep.TotalPs())
			series["normal_ms/"+label] = normRep.TotalPs() / 1e9
			series["speedup_normal/"+label] = swRep.TotalPs() / normRep.TotalPs()
		}
		speed := swRep.TotalPs() / vimRep.TotalPs()
		tb.AddRow(label, ms(swRep.TotalPs()), normMs, ms(vimRep.TotalPs()),
			ms(vimRep.HWPs), ms(vimRep.SWDPPs), ms(vimRep.SWIMUPs+vimRep.SWOSPs),
			normSpeed, fmt.Sprintf("%.1fx", speed), fmt.Sprintf("%d", vimRep.VIM.Faults))
		series["sw_ms/"+label] = swRep.TotalPs() / 1e9
		series["vim_ms/"+label] = vimRep.TotalPs() / 1e9
		series["speedup_vim/"+label] = speed
		series["faults/"+label] = float64(vimRep.VIM.Faults)
		series["swimu_frac/"+label] = (vimRep.SWIMUPs + vimRep.SWOSPs) / vimRep.TotalPs()
		series["hw_only_speedup/"+label] = swRep.TotalPs() / vimRep.HWPs
	}
	notes := []string{
		"paper: SW 26/53/105/211 ms; speedups ≈11-12x; normal coprocessor exceeds available memory at 16/32 KB",
		strings.TrimSpace(`bars: "normal" stages the whole dataset statically (no OS); "VIM" demand-pages transparently`),
	}
	return &Result{ID: "FIG9", Title: "IDEA execution times",
		Tables: []*stats.Table{tb}, Notes: notes, Series: series}, nil
}
