package scriptcp

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/harness"
	"repro/internal/sim"
)

func specs() []ObjSpec {
	return []ObjSpec{
		{ID: 0, Size: 1024, Readable: true, ReadbackSafe: true},
		{ID: 1, Size: 2048, Readable: true, Writable: true, ReadbackSafe: true},
		{ID: 2, Size: 512, Writable: true},
	}
}

func TestGenerateProducesValidOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := Generate(rng, specs(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Fatal("empty script")
	}
	if s[len(s)-1].Kind != OpWriteChecksum {
		t.Fatal("script must end with a checksum write")
	}
	sizes := map[uint8]uint32{0: 1024, 1: 2048, 2: 512}
	for i, op := range s {
		max, ok := sizes[op.Obj]
		if !ok {
			t.Fatalf("op %d touches unknown object", i)
		}
		sz := uint32(op.Size)
		if op.Kind == OpWriteChecksum {
			sz = 4
		}
		if op.Addr%sz != 0 {
			t.Fatalf("op %d unaligned: %+v", i, op)
		}
		if op.Addr+sz > max {
			t.Fatalf("op %d out of bounds: %+v", i, op)
		}
		if op.Kind == OpRead && op.Obj == 2 {
			t.Fatalf("op %d reads the write-only object", i)
		}
		if op.Kind == OpWrite && op.Obj == 0 {
			t.Fatalf("op %d writes the read-only object", i)
		}
	}
}

func TestGenerateNeedsWritableObject(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, err := Generate(rng, []ObjSpec{{ID: 0, Size: 64, Readable: true}}, 10)
	if err == nil {
		t.Fatal("accepted object set with no writable object")
	}
}

func TestApplyTracksWritesAndChecksum(t *testing.T) {
	bufs := map[uint8][]byte{
		0: {1, 2, 3, 4, 5, 6, 7, 8},
		1: make([]byte, 8),
	}
	s := Script{
		{Kind: OpRead, Obj: 0, Size: 4, Addr: 0},
		{Kind: OpWrite, Obj: 1, Size: 2, Addr: 2, Val: 0xaabb},
		{Kind: OpWriteChecksum, Obj: 1, Addr: 4},
	}
	sum, masks, err := Apply(s, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if bufs[1][2] != 0xbb || bufs[1][3] != 0xaa {
		t.Fatalf("write not applied: % x", bufs[1])
	}
	want := fold(0, 0x04030201, 0)
	if sum != want {
		t.Fatalf("sum = %#x, want %#x", sum, want)
	}
	// The mask covers exactly the written bytes of object 1.
	wantMask := []bool{false, false, true, true, true, true, true, true}
	for i, m := range wantMask {
		if masks[1][i] != m {
			t.Fatalf("mask[1][%d] = %v, want %v", i, masks[1][i], m)
		}
	}
	// Object 0 was only read.
	for i, m := range masks[0] {
		if m {
			t.Fatalf("mask[0][%d] set for a read-only access", i)
		}
	}
}

func TestApplyRejectsBadScript(t *testing.T) {
	bufs := map[uint8][]byte{0: make([]byte, 4)}
	if _, _, err := Apply(Script{{Kind: OpRead, Obj: 9, Size: 1}}, bufs); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, _, err := Apply(Script{{Kind: OpRead, Obj: 0, Size: 4, Addr: 2}}, bufs); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if _, _, err := Apply(Script{{Kind: OpWrite, Obj: 0, Size: 4, Addr: 4}}, bufs); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := Generate(rng, specs(), int(n%64)+1)
		if err != nil {
			return false
		}
		dec, err := Decode(Encode(s))
		if err != nil || len(dec) != len(s) {
			return false
		}
		for i := range s {
			if dec[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// opCases are single ops, each malformed or a well-formed edge case, that
// every op check must judge alike.
var opCases = []struct {
	name string
	op   Op
	ok   bool
}{
	{"unknown kind", Op{Kind: 0x7f, Size: 4}, false},
	{"size 0", Op{Kind: OpRead, Size: 0}, false},
	{"size 3", Op{Kind: OpWrite, Size: 3, Val: 0xaabbccdd}, false},
	{"size 8", Op{Kind: OpRead, Size: 8}, false},
	{"32-bit write at 1", Op{Kind: OpWrite, Size: 4, Addr: 1, Val: 0xaabbccdd}, false},
	{"32-bit read at 6", Op{Kind: OpRead, Size: 4, Addr: 6}, false},
	{"16-bit write at 7", Op{Kind: OpWrite, Size: 2, Addr: 7}, false},
	{"checksum at 2", Op{Kind: OpWriteChecksum, Addr: 2}, false},
	{"8-bit read at 7", Op{Kind: OpRead, Size: 1, Addr: 7}, true},
	{"16-bit write at 6", Op{Kind: OpWrite, Size: 2, Addr: 6}, true},
	{"checksum at 4, size ignored", Op{Kind: OpWriteChecksum, Size: 3, Addr: 4}, true},
}

// TestDecodeRejectsUnknownKind checks that Decode and Apply reject every
// malformed op — an unknown kind, a size outside {1, 2, 4}, an address not
// a multiple of the size, a checksum write not 4-aligned — naming its
// index, and accept the well-formed edge cases.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	for _, c := range opCases {
		t.Run(c.name, func(t *testing.T) {
			s := Script{{Kind: OpRead, Obj: 0, Size: 4}, c.op}
			_, decErr := Decode(Encode(s))
			_, _, applyErr := Apply(s, map[uint8][]byte{0: make([]byte, 16)})
			for _, err := range []error{decErr, applyErr} {
				if c.ok && err != nil {
					t.Fatalf("rejected a valid op: %v", err)
				}
				if !c.ok && (err == nil || !strings.Contains(err.Error(), "op 1 ")) {
					t.Fatalf("error %v, want one naming op 1", err)
				}
			}
		})
	}
}

// TestBitstreamRejectsMalformedOps checks that Bitstream refuses to build
// an image around any malformed op, naming its index, and builds one that
// loads for every well-formed edge case.
func TestBitstreamRejectsMalformedOps(t *testing.T) {
	for _, c := range opCases {
		t.Run(c.name, func(t *testing.T) {
			img, err := Bitstream("EPXA1", Script{{Kind: OpRead, Obj: 0, Size: 4}, c.op})
			if !c.ok {
				if err == nil || !strings.Contains(err.Error(), "op 1 ") {
					t.Fatalf("error %v, want one naming op 1", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected a valid op: %v", err)
			}
			if _, _, err := bitstream.Instantiate(img, "EPXA1"); err != nil {
				t.Fatalf("the built image does not load: %v", err)
			}
		})
	}
}

// TestTimingPinned pins the core's cycle timing on a fixed 40-op script
// under the lockstep scheduler: the IMU cycle at which CP_FIN rises and the
// Mem counters.
func TestTimingPinned(t *testing.T) {
	const fin, reads, writes, wait = 295, 17, 25, 168
	s, err := Generate(rand.New(rand.NewSource(11)), specs(), 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Sched = sim.Lockstep
	core := New(s)
	bench, err := harness.New(cfg, core)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{bench.SetParams(uint32(len(s))),
		bench.MapPage(0, 0, 1), bench.MapPage(1, 0, 2), bench.MapPage(2, 0, 3)} {
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
