package imu

import (
	"testing"

	"repro/internal/copro"
	"repro/internal/mem"
)

// BenchmarkTranslate is the per-layer benchmark of the translation path:
// one op is one read per active channel, driven edge by edge through the
// multi-cycle FSM (latch, CAM match, translation-RAM read, access, then the
// drop of CP_TLBHIT) with no engine or coprocessor model around the IMU.
// The table is full, and every channel's page sits at its far end, so each
// CAM scan walks all of it. Cases:
//
//   - hit: one channel, its page mapped;
//   - miss-fault: one channel whose page is unmapped, so the CAM edge
//     faults, the stand-in OS maps the page and restarts the channel, and
//     the retried access hits;
//   - cam-2ch: two channels translating at once over the shared table.
//
// It fails unless an op allocates nothing.
func BenchmarkTranslate(b *testing.B) {
	for _, c := range []struct {
		name  string
		chans int
		fault bool
	}{{"hit", 1, false}, {"miss-fault", 1, true}, {"cam-2ch", 2, false}} {
		b.Run(c.name, func(b *testing.B) {
			const pages, shift = 16, 11
			dp, err := mem.NewDPRAM(pages<<shift, 1<<shift)
			if err != nil {
				b.Fatal(err)
			}
			u, err := New(Config{PageShift: shift, Entries: pages, Mode: MultiCycle}, dp)
			if err != nil {
				b.Fatal(err)
			}
			if err := u.SetChannels(c.chans); err != nil {
				b.Fatal(err)
			}
			ports := make([]*copro.Port, c.chans)
			for i := range ports {
				ports[i] = copro.NewPort()
				u.BindCh(i, ports[i])
			}
			// Channel i's page lives in entry pages-1-i; every other entry
			// belongs to a session no channel uses.
			mapping := func(i int) TLBEntry {
				f := pages - 1 - i
				return TLBEntry{Valid: true, Sess: uint8(i), Obj: 1, Frame: uint8(f)}
			}
			for f := 0; f < pages; f++ {
				e := TLBEntry{Valid: true, Sess: 7, Obj: 1, VPage: uint32(f), Frame: uint8(f)}
				if err := u.SetEntry(f, e); err != nil {
					b.Fatal(err)
				}
			}
			for i := range ports {
				if err := u.SetEntry(pages-1-i, mapping(i)); err != nil {
					b.Fatal(err)
				}
			}
			edge := func() {
				u.Eval()
				u.Update()
			}
			drive := func(access bool) {
				for i, p := range ports {
					*p.StageCP() = copro.CPOut{Obj: 1, Addr: uint32(4 * i), Size: copro.Size32, Access: access}
					p.CommitCP()
				}
			}
			hits := func(want bool) bool {
				for _, p := range ports {
					if p.IMURef().TLBHit != want {
						return false
					}
				}
				return true
			}
			op := func() {
				if c.fault {
					if err := u.SetEntry(pages-1, TLBEntry{}); err != nil {
						b.Fatal(err)
					}
				}
				drive(true)
				for !hits(true) {
					edge()
					if u.FaultPendingCh(0) {
						if err := u.SetEntry(pages-1, mapping(0)); err != nil {
							b.Fatal(err)
						}
						u.RestartCh(0)
					}
				}
				drive(false)
				for !hits(false) {
					edge()
				}
			}
			op()
			if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
				b.Fatalf("%v allocs per op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
