package amba

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// beatOnly hides a slave's burst method, so a bus mapping it serves every
// burst beat by beat: the reference the burst path must match.
type beatOnly struct{ Slave }

// burstWorld is one bus with its memories, built identically for the bus
// under test and for the beat-by-beat reference. Its map, in address
// order:
//
//	[0x0000_0000, 0x0004_1000)  SDRAM, 4 KiB of region past the 256 KiB store
//	[0x0800_0000, 0x0800_4000)  DP RAM
//	[0x0800_4000, 0x0800_4100)  register file, directly after the DP RAM
type burstWorld struct {
	bus  *Bus
	sd   *mem.SDRAM
	dp   *mem.DPRAM
	regs []uint32
}

const (
	sdStore  = 256 << 10
	sdRegion = sdStore + 4<<10
	dpBase   = 0x0800_0000
	dpSize   = 16 << 10
	regBase  = dpBase + dpSize
	regSize  = 0x100
)

func newBurstWorld(t *testing.T, timing mem.SDRAMTiming, dpWaits int64, reference bool) *burstWorld {
	t.Helper()
	w := &burstWorld{bus: NewBus(), sd: mem.NewSDRAM(sdStore, timing), regs: make([]uint32, regSize/WordBytes)}
	var err error
	if w.dp, err = mem.NewDPRAM(dpSize, 2<<10); err != nil {
		t.Fatal(err)
	}
	// Distinct, deterministic contents straddling the SDRAM store's
	// 64 KiB backing-page boundaries; the last backing page stays
	// unmaterialised until a burst writes it.
	for a := uint32(0); a < sdStore-1<<16; a += 0x3fc {
		if err := w.sd.Store().Write32(a, a*2654435761, 0xf); err != nil {
			t.Fatal(err)
		}
	}
	for a := uint32(0); a < dpSize; a += WordBytes {
		if err := w.dp.Store().Write32(a, ^a*40503, 0xf); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.regs {
		w.regs[i] = uint32(i) * 0x01010101
	}
	reg := &RegSlave{
		Label: "regs",
		ReadFn: func(off uint32) (uint32, error) {
			if off%WordBytes != 0 {
				return 0, fmt.Errorf("unaligned register read at %#x", off)
			}
			return w.regs[off/WordBytes], nil
		},
		WriteFn: func(off uint32, v uint32) error {
			if off%WordBytes != 0 {
				return fmt.Errorf("unaligned register write at %#x", off)
			}
			w.regs[off/WordBytes] = v
			return nil
		},
	}
	slaves := []struct {
		base, size uint32
		s          Slave
	}{
		{0, sdRegion, &SDRAMSlave{RAM: w.sd}},
		{dpBase, dpSize, &DPRAMSlave{RAM: w.dp, Waits: dpWaits}},
		{regBase, regSize, reg},
	}
	for _, m := range slaves {
		s := m.s
		if reference {
			s = beatOnly{s}
		}
		if err := w.bus.Map(m.base, m.size, s); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBurstPathMatchesBeats drives the same bursts through a bus whose
// SDRAM and DP RAM slaves serve whole bursts and through a reference bus
// whose slaves only take beats, and requires identical data, bus cycles,
// transfer counts, DP RAM port-B counters and error text after every
// burst.
func TestBurstPathMatchesBeats(t *testing.T) {
	type burst struct {
		name  string
		addr  uint32
		words int
	}
	bursts := []burst{
		{"sdram", 0x4000, 8},
		{"sdram-page", 0x4800, 512},
		{"sdram-single", 0x100, 1},
		{"sdram-unaligned", 0x102, 8},
		{"sdram-empty", 0x200, 0},
		{"sdram-straddle-store-page", 0x1_0000 - 16, 8},
		{"sdram-straddle-store-page-unaligned", 0x2_0000 - 6, 8},
		{"sdram-unwritten-page", sdStore - 0x800, 8},
		{"sdram-past-store", sdStore - 16, 8},
		{"sdram-beyond-store", sdStore + 0x800, 4},
		{"sdram-off-region", sdRegion - 8, 4},
		{"dpram", dpBase + 0x40, 8},
		{"dpram-page", dpBase + 0x800, 512},
		{"dpram-into-regs", regBase - 8, 4},
		{"regs", regBase, 4},
		{"regs-unaligned", regBase + 2, 2},
		{"regs-off-region", regBase + regSize - 8, 4},
		{"unmapped", 0xf000_0000, 4},
		{"wrap", 0xffff_fff8, 4},
	}
	timings := []mem.SDRAMTiming{
		mem.DefaultSDRAMTiming(),
		{FirstWord: 1, NextWord: 1, BurstLen: 8},
		{FirstWord: 0, NextWord: 0, BurstLen: 8},
		{FirstWord: 4, NextWord: -2, BurstLen: 4},
		{FirstWord: 9, NextWord: 3, BurstLen: 8},
	}
	for _, timing := range timings {
		for _, dpWaits := range []int64{0, 1} {
			name := fmt.Sprintf("first%d-next%d-dpwaits%d", timing.FirstWord, timing.NextWord, dpWaits)
			t.Run(name, func(t *testing.T) {
				got := newBurstWorld(t, timing, dpWaits, false)
				want := newBurstWorld(t, timing, dpWaits, true)
				for _, a := range []uint32{0, dpBase} {
					if got.bus.find(a).burst == nil || want.bus.find(a).burst != nil {
						t.Fatalf("region at %#x: burst path not installed only on the bus under test", a)
					}
				}
				for _, bu := range bursts {
					for _, write := range []bool{false, true} {
						op := fmt.Sprintf("%s read", bu.name)
						if write {
							op = fmt.Sprintf("%s write", bu.name)
						}
						gotBuf, wantBuf := make([]uint32, bu.words), make([]uint32, bu.words)
						for i := range gotBuf {
							gotBuf[i] = 0xa5a5_0000 + uint32(i)
							wantBuf[i] = gotBuf[i]
						}
						var gotErr, wantErr error
						if write {
							gotErr = got.bus.WriteBurst(bu.addr, gotBuf)
							wantErr = want.bus.WriteBurst(bu.addr, wantBuf)
						} else {
							gotErr = got.bus.ReadBurst(bu.addr, gotBuf)
							wantErr = want.bus.ReadBurst(bu.addr, wantBuf)
						}
						compareWorlds(t, op, got, want, gotBuf, wantBuf, gotErr, wantErr)
					}
				}
				// Page copies both ways, the operating system's use of the bus.
				for _, c := range []struct {
					name     string
					dst, src uint32
					n        int
				}{
					{"copy-page-in", dpBase + 0x1000, 0x8000, 2048},
					{"copy-write-back", 0xf800, dpBase + 0x1000, 2048},
					{"copy-past-store", dpBase, sdStore - 64, 128},
				} {
					gotCy, gotErr := got.bus.Copy(c.dst, c.src, c.n, 8)
					wantCy, wantErr := want.bus.Copy(c.dst, c.src, c.n, 8)
					if gotCy != wantCy {
						t.Errorf("%s: Copy charged %d cycles, want %d", c.name, gotCy, wantCy)
					}
					compareWorlds(t, c.name, got, want, nil, nil, gotErr, wantErr)
				}
			})
		}
	}
}

func compareWorlds(t *testing.T, op string, got, want *burstWorld, gotBuf, wantBuf []uint32, gotErr, wantErr error) {
	t.Helper()
	if g, w := errText(gotErr), errText(wantErr); g != w {
		t.Errorf("%s: error %q, want %q", op, g, w)
	}
	if !slices.Equal(gotBuf, wantBuf) {
		t.Errorf("%s: data %x, want %x", op, gotBuf, wantBuf)
	}
	if got.bus.Cycles != want.bus.Cycles || got.bus.Transfers != want.bus.Transfers {
		t.Errorf("%s: Cycles/Transfers %d/%d, want %d/%d", op,
			got.bus.Cycles, got.bus.Transfers, want.bus.Cycles, want.bus.Transfers)
	}
	if got.dp.ReadsB != want.dp.ReadsB || got.dp.WritesB != want.dp.WritesB {
		t.Errorf("%s: DP RAM ReadsB/WritesB %d/%d, want %d/%d", op,
			got.dp.ReadsB, got.dp.WritesB, want.dp.ReadsB, want.dp.WritesB)
	}
	if got.sd.Store().MaterializedBytes() != want.sd.Store().MaterializedBytes() {
		t.Errorf("%s: SDRAM materialised %d bytes, want %d", op,
			got.sd.Store().MaterializedBytes(), want.sd.Store().MaterializedBytes())
	}
	gotSD, _ := got.sd.Store().ReadBytes(0, sdStore)
	wantSD, _ := want.sd.Store().ReadBytes(0, sdStore)
	gotDP, _ := got.dp.Store().ReadBytes(0, dpSize)
	wantDP, _ := want.dp.Store().ReadBytes(0, dpSize)
	if !slices.Equal(gotSD, wantSD) || !slices.Equal(gotDP, wantDP) || !slices.Equal(got.regs, want.regs) {
		t.Errorf("%s: memory contents differ from the beat-by-beat reference", op)
	}
}
