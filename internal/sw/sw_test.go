package sw

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/ref"
)

func newCtx(t testing.TB) *cpu.Ctx {
	t.Helper()
	sd := mem.NewSDRAM(1<<22, mem.DefaultSDRAMTiming())
	core, err := cpu.NewCore(133_000_000, cpu.DefaultCostModel(), cpu.DefaultCacheConfig(), sd)
	if err != nil {
		t.Fatal(err)
	}
	return cpu.NewCtx(core)
}

func writer(x *cpu.Ctx) func(uint32, uint32) {
	return func(addr, v uint32) {
		if err := x.Core().SDRAM.Store().Write32(addr, v, 0xf); err != nil {
			panic(err)
		}
	}
}

func TestVecAddMatchesGolden(t *testing.T) {
	x := newCtx(t)
	st := x.Core().SDRAM.Store()
	a := []uint32{5, 10, 0xffffffff, 7}
	for i, v := range a {
		_ = st.Write32(0x1000+uint32(4*i), v, 0xf)
		_ = st.Write32(0x2000+uint32(4*i), v*3, 0xf)
	}
	VecAdd(x, 0x1000, 0x2000, 0x3000, uint32(len(a)))
	for i, v := range a {
		got, _ := st.Read32(0x3000 + uint32(4*i))
		if got != v+v*3 {
			t.Fatalf("C[%d] = %d, want %d", i, got, v+v*3)
		}
	}
	if x.Core().Cycles() == 0 {
		t.Fatal("no cycles charged")
	}
}

func TestADPCMDecodeMatchesGolden(t *testing.T) {
	x := newCtx(t)
	st := x.Core().SDRAM.Store()
	tb := WriteTables(writer(x), 0x100)
	rng := rand.New(rand.NewSource(9))
	packed := make([]byte, 1024)
	rng.Read(packed)
	if err := st.WriteBytes(0x1000, packed); err != nil {
		t.Fatal(err)
	}
	ADPCMDecode(x, tb, 0x1000, 0x8000, uint32(len(packed)))
	want := ref.ADPCMDecode(ref.ADPCMState{}, packed)
	for i, w := range want {
		got, _ := st.Read32(0x8000 + uint32(i*2)&^3)
		v := uint16(got >> (8 * (uint32(i*2) % 4)))
		if int16(v) != w {
			t.Fatalf("sample %d: got %d, want %d", i, int16(v), w)
		}
	}
}

func TestIDEAApplyMatchesGolden(t *testing.T) {
	x := newCtx(t)
	st := x.Core().SDRAM.Store()
	rng := rand.New(rand.NewSource(13))
	var key ref.IDEAKey
	rng.Read(key[:])
	ek := ref.ExpandIDEAKey(key)
	WriteSubkeys(writer(x), 0x100, ek)
	in := make([]byte, 512)
	rng.Read(in)
	if err := st.WriteBytes(0x1000, in); err != nil {
		t.Fatal(err)
	}
	IDEAApply(x, 0x1000, 0x4000, 0x100, uint32(len(in)/8))
	want := ref.IDEAApply(&ek, in)
	got, _ := st.ReadBytes(0x4000, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d: got %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestCalibration asserts the cost model lands in the neighbourhood of the
// paper's published software times (docs/ARCHITECTURE.md, Calibration): ≈146 cycles/sample for
// adpcmdecode and ≈6.6k cycles/block for IDEA, both ±35%.
func TestCalibration(t *testing.T) {
	x := newCtx(t)
	st := x.Core().SDRAM.Store()
	tb := WriteTables(writer(x), 0x100)
	rng := rand.New(rand.NewSource(1))
	packed := make([]byte, 4096)
	rng.Read(packed)
	_ = st.WriteBytes(0x1000, packed)
	x.Core().ResetStats()
	ADPCMDecode(x, tb, 0x1000, 0x10000, uint32(len(packed)))
	perSample := float64(x.Core().Cycles()) / float64(len(packed)*2)
	if perSample < 95 || perSample > 197 {
		t.Errorf("adpcm = %.1f cycles/sample, want ≈146 ±35%%", perSample)
	}

	var key ref.IDEAKey
	rng.Read(key[:])
	ek := ref.ExpandIDEAKey(key)
	WriteSubkeys(writer(x), 0x200, ek)
	in := make([]byte, 4096)
	rng.Read(in)
	_ = st.WriteBytes(0x20000, in)
	x.Core().ResetStats()
	IDEAApply(x, 0x20000, 0x30000, 0x200, uint32(len(in)/8))
	perBlock := float64(x.Core().Cycles()) / float64(len(in)/8)
	if perBlock < 4300 || perBlock > 8900 {
		t.Errorf("idea = %.0f cycles/block, want ≈6600 ±35%%", perBlock)
	}
	t.Logf("calibration: adpcm %.1f cycles/sample, idea %.0f cycles/block", perSample, perBlock)
}
