// Package baseline implements the paper's comparison points that do NOT use
// the virtual interface manager:
//
//   - The "normal coprocessor" of Figure 9: the application stages the whole
//     dataset into the dual-port RAM, runs the coprocessor once, and copies
//     the results back. When the data exceeds the physical memory this
//     version simply cannot run — the paper marks those columns "exceeds
//     available memory".
//   - The "typical coprocessor" of Figure 3 (middle listing): the programmer
//     hand-writes the chunking loop — copy a fragment in, run, copy the
//     fragment out, repeat — burdened with every platform detail the VIM
//     would otherwise hide. This is the ABL-CHUNK ablation.
//
// Both run on the same hardware models as the virtualised path (the static
// full-residence mapping makes the IMU a pass-through wrapper that never
// faults), so the comparison isolates exactly the cost and benefit of OS
// involvement.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/core"
	"repro/internal/imu"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/vim"
)

// ErrExceedsMemory marks a single-shot run whose data cannot fit the
// dual-port RAM (Figure 9's annotation).
var ErrExceedsMemory = errors.New("baseline: data set exceeds available memory")

// Stream describes one data object of the application.
type Stream struct {
	ID        uint8
	Dir       vim.Direction
	ItemBytes int    // bytes per work item (must divide the page size evenly enough to chunk)
	Data      []byte // input data (nil for pure outputs)
	Out       []byte // filled with ItemBytes*items for outputs
}

// ParamsFunc builds the FPGA_EXECUTE-style scalar parameters for a chunk of
// items work items that follows the first done: a core whose state runs
// across items must be told, from the second chunk on, the state the
// previous chunks left it in (the outputs copied back so far are in the
// streams).
type ParamsFunc func(done, items int) []uint32

// Runner executes an application against a board without any VIM.
type Runner struct {
	Board *platform.Board
	HW    *platform.ShellHW // a one-slot shell
	hdr   bitstream.Header

	scratch uint32 // staging buffer in user memory, one DP RAM's worth
}

// NewRunner boots a fresh board of the given spec and configures the PLD
// from img.
func NewRunner(spec platform.Spec, img []byte) (*Runner, error) {
	board, err := platform.NewBoard(spec)
	if err != nil {
		return nil, err
	}
	hdr, cp, err := bitstream.Instantiate(img, spec.Name)
	if err != nil {
		return nil, err
	}
	hw, err := board.AssembleShell(hdr.IMUClock, 1)
	if err != nil {
		return nil, err
	}
	if err := hw.LoadSlot(board, 0, cp, hdr.CoreClock); err != nil {
		return nil, err
	}
	scratch, err := board.Kern.Alloc(board.DP.Size() + 8)
	if err != nil {
		return nil, err
	}
	return &Runner{Board: board, HW: hw, hdr: hdr, scratch: scratch}, nil
}

// pagesFor returns the page count needed to hold n bytes.
func (r *Runner) pagesFor(n int) int {
	ps := r.Board.DP.PageSize()
	return (n + ps - 1) / ps
}

// chunkPages returns the frames needed by one chunk of the given item count.
func (r *Runner) chunkPages(streams []*Stream, items int) int {
	total := 1 // parameter page
	for _, s := range streams {
		total += r.pagesFor(s.ItemBytes * items)
	}
	return total
}

// fits reports whether a chunk of the given item count can be statically
// mapped. A chunk needing exactly one frame more than physically available
// still fits when the overflow page belongs to a pure-output stream: the
// coprocessor invalidates the parameter page after reading it (§3.2),
// freeing frame 0 for that final output page.
func (r *Runner) fits(streams []*Stream, items int) bool {
	total := r.chunkPages(streams, items)
	frames := r.Board.DP.Pages()
	if total <= frames {
		return true
	}
	if total == frames+1 && len(streams) > 0 {
		return streams[len(streams)-1].Dir == vim.Out
	}
	return false
}

// maxChunk returns the largest item count whose pages fit the DP RAM.
func (r *Runner) maxChunk(streams []*Stream, items int) int {
	lo, hi := 0, items
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.fits(streams, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// RunSingleShot runs the whole dataset in one pass, exactly like the
// paper's normal coprocessor. It fails with ErrExceedsMemory when the data
// does not fit.
func (r *Runner) RunSingleShot(items int, streams []*Stream, params ParamsFunc) (*core.Report, error) {
	if !r.fits(streams, items) {
		return nil, fmt.Errorf("%w: %d pages needed, %d available",
			ErrExceedsMemory, r.chunkPages(streams, items), r.Board.DP.Pages())
	}
	return r.run(items, items, streams, params, "normal")
}

// RunChunked runs the Figure 3 hand-written loop: the largest chunk that
// fits, repeated until the dataset is done.
func (r *Runner) RunChunked(items int, streams []*Stream, params ParamsFunc) (*core.Report, error) {
	chunk := r.maxChunk(streams, items)
	if chunk == 0 {
		return nil, fmt.Errorf("%w: a single item does not fit", ErrExceedsMemory)
	}
	return r.run(items, chunk, streams, params, "chunked")
}

// run executes the dataset in chunks of up to chunkItems.
func (r *Runner) run(items, chunkItems int, streams []*Stream, params ParamsFunc, label string) (*core.Report, error) {
	k := r.Board.Kern
	tl := k.TL
	tl.Reset()
	r.Board.IMU.ResetCounters()
	u := r.Board.IMU

	for _, s := range streams {
		if s.Dir != vim.In {
			s.Out = make([]byte, s.ItemBytes*items)
		}
	}

	hw := r.HW
	eng := hw.Eng
	startCy := hw.Dom.Cycles()
	startSim := eng.Stats()
	hwPs := 0.0

	for done := 0; done < items; {
		n := chunkItems
		if items-done < n {
			n = items - done
		}

		// Static mapping for this chunk: param page in frame 0, then the
		// streams' pages packed sequentially — the bookkeeping the VIM
		// would otherwise do, here hand-written in the application. An
		// overflow output page wraps onto frame 0, reusing the parameter
		// page the coprocessor releases after start-up (§3.2).
		u.InvalidateAll()
		for i, w := range params(done, n) {
			if err := k.BusWrite32(stats.SWIMU, platform.DPBase+uint32(4*i), w); err != nil {
				return nil, err
			}
		}
		if err := r.installEntry(0, imu.TLBEntry{Valid: true, Obj: copro.ParamObj, VPage: 0, Frame: 0}); err != nil {
			return nil, err
		}
		frames := r.Board.DP.Pages()
		assign := make([][]int, len(streams))
		next := 1
		for si, s := range streams {
			pages := r.pagesFor(s.ItemBytes * n)
			for p := 0; p < pages; p++ {
				f := next
				if f >= frames {
					f = 0 // reuse the released parameter frame
				}
				assign[si] = append(assign[si], f)
				next++
			}
		}
		var wrapped []imu.TLBEntry
		for si, s := range streams {
			bytes := s.ItemBytes * n
			if s.Dir != vim.Out && bytes > 0 {
				src := s.Data[done*s.ItemBytes : done*s.ItemBytes+bytes]
				if err := r.copyIn(assign[si], src); err != nil {
					return nil, err
				}
			}
			for p, f := range assign[si] {
				e := imu.TLBEntry{Valid: true, Obj: s.ID, VPage: uint32(p), Frame: uint8(f)}
				if f == 0 {
					// The CAM slot is still held by the parameter entry;
					// this mapping is installed once the coprocessor
					// releases the page.
					wrapped = append(wrapped, e)
					continue
				}
				if err := r.installEntry(f, e); err != nil {
					return nil, err
				}
			}
		}
		if len(wrapped) > 1 {
			return nil, fmt.Errorf("baseline: %d pages overflow the parameter frame, at most 1 fits", len(wrapped))
		}

		// Launch (no OS: the application busy-waits on the status bits).
		u.Start()
		before := eng.NowPs()
		if len(wrapped) == 1 {
			// Poll until the coprocessor has consumed the parameters and
			// invalidated their page (§3.2), then reuse frame 0 and its
			// CAM slot for the final output page.
			if _, err := hw.RunUntil(func() bool { return u.ParamFree() || u.IRQ() }, core.DefaultBudget); err != nil {
				return nil, err
			}
			hwPs += eng.NowPs() - before
			if u.IRQ() && !u.ParamFree() {
				return nil, fmt.Errorf("baseline: coprocessor stopped before releasing the parameter page")
			}
			if _, err := k.BusRead32(stats.SWIMU, platform.IMURegBase+imu.RegSR); err != nil {
				return nil, err
			}
			if err := r.installEntry(0, wrapped[0]); err != nil {
				return nil, err
			}
			if err := k.BusWrite32(stats.SWIMU, platform.IMURegBase+imu.RegCR, imu.CRClrPF); err != nil {
				return nil, err
			}
			before = eng.NowPs()
		}
		if _, err := hw.RunUntilEvent(core.DefaultBudget); err != nil {
			return nil, err
		}
		hwPs += eng.NowPs() - before
		if u.FaultPending() {
			return nil, fmt.Errorf("baseline: unexpected fault (obj %d addr %#x) — static mapping incomplete",
				u.FaultObj(), u.FaultAddr())
		}
		u.AckDone()
		// Drain until the core has observed CP_START falling and dropped
		// CP_FIN — with a slow core clock this takes several bus edges.
		before = eng.NowPs()
		port := hw.Slots[0].Port()
		if _, err := hw.RunUntil(func() bool { return !port.CP().Fin && !u.IRQ() }, 256); err != nil {
			return nil, fmt.Errorf("baseline: completion handshake did not drain: %v", err)
		}
		hwPs += eng.NowPs() - before

		// Copy outputs back.
		for si, s := range streams {
			bytes := s.ItemBytes * n
			if s.Dir != vim.In && bytes > 0 {
				dst := s.Out[done*s.ItemBytes : done*s.ItemBytes+bytes]
				if err := r.copyOut(assign[si], dst); err != nil {
					return nil, err
				}
			}
		}
		done += n
	}

	tl.Add(stats.HW, hwPs)
	return &core.Report{
		App:     r.hdr.Core + "-" + label,
		Board:   r.Board.Spec.Name,
		Policy:  "static",
		IMUMode: u.Config().Mode.String(),
		HWPs:    tl.Ps(stats.HW),
		SWDPPs:  tl.Ps(stats.SWDP),
		SWIMUPs: tl.Ps(stats.SWIMU),
		SWOSPs:  tl.Ps(stats.SWOS),
		IMU:     u.Count,
		HWCy:    hw.Dom.Cycles() - startCy,
		Sim:     eng.Stats().Since(startSim),
	}, nil
}

// installEntry programs one TLB entry through timed register writes.
func (r *Runner) installEntry(idx int, e imu.TLBEntry) error {
	k := r.Board.Kern
	if err := k.BusWrite32(stats.SWIMU, platform.IMURegBase+imu.RegTLBIdx, uint32(idx)); err != nil {
		return err
	}
	lo := uint32(0)
	if e.Valid {
		lo |= 1
	}
	lo |= uint32(e.Obj) << 1
	lo |= (e.VPage & 0x7fff) << 9
	if err := k.BusWrite32(stats.SWIMU, platform.IMURegBase+imu.RegTLBLo, lo); err != nil {
		return err
	}
	return k.BusWrite32(stats.SWIMU, platform.IMURegBase+imu.RegTLBHi, uint32(e.Frame))
}

// copyIn stages data into the assigned frames page by page (through the
// user-space staging buffer, costing the same AHB path as any user copy).
func (r *Runner) copyIn(frames []int, data []byte) error {
	k := r.Board.Kern
	if err := k.WriteUser(r.scratch, data); err != nil {
		return err
	}
	ps := r.Board.DP.PageSize()
	for p, f := range frames {
		off := p * ps
		n := len(data) - off
		if n > ps {
			n = ps
		}
		if n <= 0 {
			break
		}
		n = (n + 3) &^ 3
		if err := k.BusCopy(stats.SWDP, platform.DPBase+uint32(f*ps), r.scratch+uint32(off), n); err != nil {
			return err
		}
	}
	return nil
}

// copyOut retrieves the assigned frames into dst page by page.
func (r *Runner) copyOut(frames []int, dst []byte) error {
	k := r.Board.Kern
	ps := r.Board.DP.PageSize()
	for p, f := range frames {
		off := p * ps
		n := len(dst) - off
		if n > ps {
			n = ps
		}
		if n <= 0 {
			break
		}
		n = (n + 3) &^ 3
		if err := k.BusCopy(stats.SWDP, r.scratch+uint32(off), platform.DPBase+uint32(f*ps), n); err != nil {
			return err
		}
	}
	got, err := k.ReadUser(r.scratch, len(dst))
	if err != nil {
		return err
	}
	copy(dst, got)
	return nil
}
