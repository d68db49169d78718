package vecadd

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/harness"
	"repro/internal/ref"
	"repro/internal/sim"
)

// run executes the core over n elements with the given inputs, returning C.
func run(t *testing.T, a, b []uint32) []uint32 {
	t.Helper()
	core := New()
	bench, err := harness.New(harness.DefaultConfig(), core)
	if err != nil {
		t.Fatal(err)
	}
	n := len(a)
	pageWords := bench.PageSize() / 4
	if n > pageWords {
		t.Fatalf("test input %d words exceeds one page (%d)", n, pageWords)
	}
	enc := func(v []uint32) []byte {
		out := make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(out[4*i:], x)
		}
		return out
	}
	if err := bench.SetParams(uint32(n)); err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadFrame(1, enc(a)); err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadFrame(2, enc(b)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		obj   uint8
		frame uint8
	}{{ObjA, 1}, {ObjB, 2}, {ObjC, 3}} {
		if err := bench.MapPage(m.obj, 0, m.frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bench.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	raw, err := bench.ReadFrame(3)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

func TestMatchesGoldenModel(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 0xffffffff, 100}
	b := []uint32{10, 20, 30, 40, 3, 200}
	got := run(t, a, b)
	want := ref.VecAdd(a, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestZeroLengthFinishesImmediately(t *testing.T) {
	got := run(t, nil, nil)
	if len(got) != 0 {
		t.Fatal("unexpected output")
	}
}

func TestQuickRandomVectors(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		got := run(t, a, b)
		want := ref.VecAdd(a, b)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParamPageReleasedAfterStart(t *testing.T) {
	core := New()
	bench, err := harness.New(harness.DefaultConfig(), core)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.SetParams(0); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if !bench.IMU.ParamFree() {
		t.Fatal("core did not invalidate the parameter page")
	}
}

func TestUnmappedObjectFaults(t *testing.T) {
	core := New()
	bench, err := harness.New(harness.DefaultConfig(), core)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.SetParams(4); err != nil { // 4 elements but A unmapped
		t.Fatal(err)
	}
	if _, err := bench.Run(100_000); err == nil {
		t.Fatal("expected a fault for unmapped object")
	}
}

// TestTimingPinned pins the core's cycle timing on a fixed 24-element input
// under the lockstep scheduler: the IMU cycle at which CP_FIN rises and the
// Mem counters. A change to the Program's steps that still adds right
// fails here.
func TestTimingPinned(t *testing.T) {
	const fin, reads, writes, wait = 512, 49, 24, 292
	cfg := harness.DefaultConfig()
	cfg.Sched = sim.Lockstep
	core := New()
	bench, err := harness.New(cfg, core)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	ab := make([]byte, 4*n)
	for i := range ab {
		ab[i] = byte(i*13 + 1)
	}
	for _, err := range []error{bench.SetParams(n), bench.LoadFrame(1, ab), bench.LoadFrame(2, ab),
		bench.MapPage(ObjA, 0, 1), bench.MapPage(ObjB, 0, 2), bench.MapPage(ObjC, 0, 3)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := bench.RunToFin(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Mem
	if got != fin || m.Reads != reads || m.Writes != writes || m.WaitCycles != wait {
		t.Errorf("CP_FIN at IMU cycle %d, %d reads, %d writes, %d wait cycles; want %d, %d, %d, %d",
			got, m.Reads, m.Writes, m.WaitCycles, fin, reads, writes, wait)
	}
}
