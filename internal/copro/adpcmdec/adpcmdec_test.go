package adpcmdec

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/harness"
	"repro/internal/ref"
	"repro/internal/sim"
)

// decodeOnBench runs the core over packed input (must fit one page; output
// must fit four frames) and returns the decoded samples.
func decodeOnBench(t *testing.T, packed []byte) []int16 {
	t.Helper()
	core := New()
	bench, err := harness.New(harness.DefaultConfig(), core)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) > bench.PageSize() {
		t.Fatalf("input %d bytes exceeds one page", len(packed))
	}
	if err := bench.SetParams(uint32(len(packed))); err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadFrame(1, packed); err != nil {
		t.Fatal(err)
	}
	if err := bench.MapPage(ObjIn, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Output: 4x volume; map as many pages as needed starting at frame 2.
	outBytes := len(packed) * 4
	pages := (outBytes + bench.PageSize() - 1) / bench.PageSize()
	for p := 0; p < pages; p++ {
		if err := bench.MapPage(ObjOut, uint32(p), uint8(2+p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bench.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	out := make([]int16, len(packed)*2)
	for p := 0; p < pages; p++ {
		raw, err := bench.ReadFrame(2 + p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(raw); i += 2 {
			idx := (p*bench.PageSize() + i) / 2
			if idx < len(out) {
				out[idx] = int16(binary.LittleEndian.Uint16(raw[i:]))
			}
		}
	}
	return out
}

func TestMatchesGoldenDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	packed := make([]byte, 512) // 1024 samples -> 2 KB output, one page
	rng.Read(packed)
	got := decodeOnBench(t, packed)
	want := ref.ADPCMDecode(ref.ADPCMState{}, packed)
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMultiPageOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	packed := make([]byte, 2048) // full input page -> 8 KB output, 4 pages
	rng.Read(packed)
	got := decodeOnBench(t, packed)
	want := ref.ADPCMDecode(ref.ADPCMState{}, packed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOutputIsFourTimesInput(t *testing.T) {
	packed := make([]byte, 256)
	got := decodeOnBench(t, packed)
	if len(got)*2 != len(packed)*4 {
		t.Fatalf("output volume %d bytes, want %d", len(got)*2, len(packed)*4)
	}
}

func TestEmptyInputCompletes(t *testing.T) {
	got := decodeOnBench(t, nil)
	if len(got) != 0 {
		t.Fatal("unexpected samples for empty input")
	}
}

// TestTimingPinned pins the core's cycle timing on a fixed 48-byte input
// under the lockstep scheduler: the IMU cycle at which CP_FIN rises and the
// Mem counters. A change to the Program's steps or compute lengths that
// still decodes right fails here.
func TestTimingPinned(t *testing.T) {
	const fin, reads, writes, wait = 2456, 49, 96, 580
	cfg := harness.DefaultConfig()
	cfg.Sched = sim.Lockstep
	core := New()
	bench, err := harness.New(cfg, core)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 48)
	for i := range in {
		in[i] = byte(i*37 + 5)
	}
	for _, err := range []error{bench.SetParams(uint32(len(in))), bench.LoadFrame(1, in),
		bench.MapPage(ObjIn, 0, 1), bench.MapPage(ObjOut, 0, 2)} {
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
