package repro

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/ref"
)

// newSys builds a default EPXA1 system or fails the test.
func newSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func u32s(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

func TestQuickstartVecAdd(t *testing.T) {
	sys := newSys(t, Config{})
	p, err := sys.NewProcess("add")
	if err != nil {
		t.Fatal(err)
	}
	// 2048 elements -> three 8 KB objects (12 pages) + the parameter page
	// against 8 frames: demand paging is exercised.
	n := 2048
	a, _ := p.Alloc(4 * n)
	b, _ := p.Alloc(4 * n)
	c, _ := p.Alloc(4 * n)
	av := make([]uint32, n)
	bv := make([]uint32, n)
	rng := rand.New(rand.NewSource(41))
	for i := range av {
		av[i] = rng.Uint32()
		bv[i] = rng.Uint32()
	}
	if err := a.Write(u32s(av)); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(u32s(bv)); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGALoad(VecAddBitstream("EPXA1")); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(VecAddObjA, a, In); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(VecAddObjB, b, In); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(VecAddObjC, c, Out); err != nil {
		t.Fatal(err)
	}
	rep, err := p.FPGAExecute(uint32(n))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := c.Read()
	want := ref.VecAdd(av, bv)
	for i := range want {
		got := binary.LittleEndian.Uint32(raw[4*i:])
		if got != want[i] {
			t.Fatalf("C[%d] = %d, want %d", i, got, want[i])
		}
	}
	// 3 x 8 KB objects exceed the 16 KB DP RAM, so demand paging must
	// have occurred.
	if rep.VIM.Faults == 0 {
		t.Fatal("expected demand-paging faults for 24 KB of objects")
	}
	if rep.HWPs <= 0 || rep.SWDPPs <= 0 {
		t.Fatalf("missing time components: %+v", rep)
	}
}

// runADPCM executes the coprocessor version over nbytes of input under the
// given config and returns the report plus output correctness.
func runADPCM(t *testing.T, cfg Config, nbytes int, seed int64) *Report {
	t.Helper()
	sys := newSys(t, cfg)
	p, err := sys.NewProcess("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.Alloc(nbytes)
	out, _ := p.Alloc(nbytes * 4)
	packed := make([]byte, nbytes)
	rand.New(rand.NewSource(seed)).Read(packed)
	if err := in.Write(packed); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGALoad(ADPCMBitstream(sys.Board().Spec.Name)); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(ADPCMObjIn, in, In); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(ADPCMObjOut, out, Out); err != nil {
		t.Fatal(err)
	}
	rep, err := p.FPGAExecute(uint32(nbytes))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := out.Read()
	want := ref.ADPCMDecode(ref.ADPCMState{}, packed)
	for i, w := range want {
		got := int16(binary.LittleEndian.Uint16(raw[2*i:]))
		if got != w {
			t.Fatalf("sample %d: got %d, want %d (cfg %+v)", i, got, w, cfg)
		}
	}
	return rep
}

func TestADPCMNoFaultsAt2KB(t *testing.T) {
	// §4.1: "for an input data size of 2 KB ... all data can fit the
	// dual-port RAM and the application execution completes without
	// causing page faults."
	rep := runADPCM(t, Config{}, 2048, 7)
	if rep.VIM.Faults != 0 {
		t.Fatalf("faults = %d, want 0 at 2 KB", rep.VIM.Faults)
	}
}

func TestADPCMFaultsFrom4KB(t *testing.T) {
	// §4.1: "For all other input sizes, page faults occur."
	rep := runADPCM(t, Config{}, 4096, 7)
	if rep.VIM.Faults == 0 {
		t.Fatal("expected faults at 4 KB")
	}
}

func TestADPCMAllPoliciesCorrect(t *testing.T) {
	for _, pol := range []string{"fifo", "lru", "clock", "random"} {
		rep := runADPCM(t, Config{Policy: pol, Seed: 99}, 4096, 11)
		if rep.Policy != pol {
			t.Fatalf("report policy = %q, want %q", rep.Policy, pol)
		}
	}
}

func TestADPCMBounceBufferCostsMore(t *testing.T) {
	lean := runADPCM(t, Config{}, 8192, 13)
	bounce := runADPCM(t, Config{BounceBuffer: true}, 8192, 13)
	if bounce.SWDPPs <= lean.SWDPPs {
		t.Fatalf("bounce SW(DP) %.0f <= lean %.0f", bounce.SWDPPs, lean.SWDPPs)
	}
	// Identical hardware activity either way.
	if bounce.HWCy != lean.HWCy {
		t.Fatalf("bounce changed hardware cycles: %d vs %d", bounce.HWCy, lean.HWCy)
	}
}

func TestADPCMPrefetchReducesFaults(t *testing.T) {
	plain := runADPCM(t, Config{}, 8192, 17)
	pf := runADPCM(t, Config{PrefetchPages: 2}, 8192, 17)
	if pf.VIM.Faults >= plain.VIM.Faults {
		t.Fatalf("prefetch did not reduce faults: %d vs %d", pf.VIM.Faults, plain.VIM.Faults)
	}
}

func TestADPCMPipelinedIMUFasterHW(t *testing.T) {
	plain := runADPCM(t, Config{}, 4096, 19)
	pipe := runADPCM(t, Config{PipelinedIMU: true}, 4096, 19)
	if pipe.HWPs >= plain.HWPs {
		t.Fatalf("pipelined IMU HW time %.0f >= multicycle %.0f", pipe.HWPs, plain.HWPs)
	}
}

// runIDEA executes the IDEA coprocessor over n input bytes.
func runIDEA(t *testing.T, cfg Config, nbytes int, seed int64) *Report {
	t.Helper()
	sys := newSys(t, cfg)
	p, err := sys.NewProcess("idea")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.Alloc(nbytes)
	out, _ := p.Alloc(nbytes)
	rng := rand.New(rand.NewSource(seed))
	var key IDEAKey
	rng.Read(key[:])
	plain := make([]byte, nbytes)
	rng.Read(plain)
	if err := in.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGALoad(IDEABitstream(sys.Board().Spec.Name)); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(IDEAObjIn, in, In); err != nil {
		t.Fatal(err)
	}
	if err := p.FPGAMapObject(IDEAObjOut, out, Out); err != nil {
		t.Fatal(err)
	}
	rep, err := p.FPGAExecute(IDEAEncryptParams(key, nbytes/8)...)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := out.Read()
	ek := ref.ExpandIDEAKey(key)
	want := ref.IDEAApply(&ek, plain)
	if !bytes.Equal(raw, want) {
		t.Fatalf("ciphertext mismatch (cfg %+v, n=%d)", cfg, nbytes)
	}
	return rep
}

func TestIDEACorrectAcrossSizes(t *testing.T) {
	// 4 KB through 32 KB, the Figure 9 sweep. 16 KB and 32 KB exceed the
	// dual-port RAM; the virtual interface must page transparently with
	// no change to application or coprocessor.
	for _, n := range []int{4096, 8192, 16384, 32768} {
		rep := runIDEA(t, Config{}, n, int64(n))
		if n >= 16384 && rep.VIM.Faults == 0 {
			t.Fatalf("expected faults at %d bytes", n)
		}
	}
}

func TestIDEADecryptRoundTripOnHardware(t *testing.T) {
	sys := newSys(t, Config{})
	p, _ := sys.NewProcess("idea-rt")
	n := 4096
	rng := rand.New(rand.NewSource(77))
	var key IDEAKey
	rng.Read(key[:])
	plain := make([]byte, n)
	rng.Read(plain)
	ek := ref.ExpandIDEAKey(key)
	ct := ref.IDEAApply(&ek, plain)

	in, _ := p.Alloc(n)
	out, _ := p.Alloc(n)
	_ = in.Write(ct)
	if err := p.FPGALoad(IDEABitstream("EPXA1")); err != nil {
		t.Fatal(err)
	}
	_ = p.FPGAMapObject(IDEAObjIn, in, In)
	_ = p.FPGAMapObject(IDEAObjOut, out, Out)
	if _, err := p.FPGAExecute(IDEADecryptParams(key, n/8)...); err != nil {
		t.Fatal(err)
	}
	raw, _ := out.Read()
	if !bytes.Equal(raw, plain) {
		t.Fatal("hardware decryption did not recover the plaintext")
	}
}

func TestPortabilityAcrossBoards(t *testing.T) {
	// §4: the same application and coprocessor run unmodified on devices
	// with different dual-port RAM sizes; larger memories mean fewer
	// faults.
	var faults []uint64
	for _, board := range []string{"EPXA1", "EPXA4", "EPXA10"} {
		rep := runIDEA(t, Config{Board: board}, 16384, 3)
		faults = append(faults, rep.VIM.Faults)
	}
	if !(faults[0] > faults[1] && faults[1] >= faults[2]) {
		t.Fatalf("faults did not shrink with DP RAM size: %v", faults)
	}
}

func TestSoftwareVersionsMatchHardware(t *testing.T) {
	sys := newSys(t, Config{})
	p, _ := sys.NewProcess("sw")
	n := 2048
	in, _ := p.Alloc(n)
	outHW, _ := p.Alloc(n * 4)
	outSW, _ := p.Alloc(n * 4)
	packed := make([]byte, n)
	rand.New(rand.NewSource(55)).Read(packed)
	_ = in.Write(packed)

	swRep, err := p.RunADPCMDecodeSW(in, outSW)
	if err != nil {
		t.Fatal(err)
	}
	if swRep.PurePs <= 0 {
		t.Fatal("software run reported no time")
	}
	if err := p.FPGALoad(ADPCMBitstream("EPXA1")); err != nil {
		t.Fatal(err)
	}
	_ = p.FPGAMapObject(ADPCMObjIn, in, In)
	_ = p.FPGAMapObject(ADPCMObjOut, outHW, Out)
	if _, err := p.FPGAExecute(uint32(n)); err != nil {
		t.Fatal(err)
	}
	hw, _ := outHW.Read()
	swb, _ := outSW.Read()
	if !bytes.Equal(hw, swb) {
		t.Fatal("software and hardware outputs differ")
	}
}

// TestSoftwareRunnersRejectBadInput requires the pure-software runners to
// return an error, without panicking or running, for a vector length that
// is negative or longer than a buffer, and for a buffer another process
// allocated or no process did.
func TestSoftwareRunnersRejectBadInput(t *testing.T) {
	sys := newSys(t, Config{})
	p, _ := sys.NewProcess("owner")
	other, _ := sys.NewProcess("other")
	a, _ := p.Alloc(64)
	b, _ := p.Alloc(64)
	c, _ := p.Alloc(64)
	short, _ := p.Alloc(60)
	big, _ := p.Alloc(256)
	foreign, _ := other.Alloc(256)
	if _, err := p.RunVecAddSW(a, b, c, 16); err != nil {
		t.Fatalf("RunVecAddSW rejected a valid call: %v", err)
	}
	var key IDEAKey
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
	}{
		{"vecadd n<0", func() (*Report, error) { return p.RunVecAddSW(a, b, c, -1) }},
		{"vecadd n too long", func() (*Report, error) { return p.RunVecAddSW(a, b, c, 17) }},
		{"vecadd short c", func() (*Report, error) { return p.RunVecAddSW(a, b, short, 16) }},
		{"vecadd n past SDRAM", func() (*Report, error) { return p.RunVecAddSW(a, b, c, 1<<40) }},
		{"vecadd foreign a", func() (*Report, error) { return p.RunVecAddSW(foreign, b, c, 16) }},
		{"vecadd zero buffer", func() (*Report, error) { return p.RunVecAddSW(a, Buffer{}, c, 0) }},
		{"adpcm foreign in", func() (*Report, error) { return p.RunADPCMDecodeSW(foreign, big) }},
		{"adpcm foreign out", func() (*Report, error) { return p.RunADPCMDecodeSW(a, foreign) }},
		{"idea foreign in", func() (*Report, error) { return p.RunIDEASW(key, foreign, big) }},
		{"idea foreign out", func() (*Report, error) { return p.RunIDEASW(key, a, foreign) }},
	} {
		if rep, err := tc.run(); err == nil || rep != nil {
			t.Errorf("%s: got report %v, error %v; want an error", tc.name, rep, err)
		}
	}
}

// TestMapObjectRejectsForeignBuffer requires FPGA_MAP_OBJECT to refuse a
// buffer that another process of the same system allocated, one from
// another system's process of the same name, and the zero Buffer, so no
// process can point the coprocessor at memory it does not own.
func TestMapObjectRejectsForeignBuffer(t *testing.T) {
	sys := newSys(t, Config{})
	p, _ := sys.NewProcess("owner")
	other, _ := sys.NewProcess("other")
	twin, _ := newSys(t, Config{}).NewProcess("owner")
	own, _ := p.Alloc(256)
	foreign, _ := other.Alloc(256)
	remote, _ := twin.Alloc(256)
	if err := p.FPGALoad(VecAddBitstream("EPXA1")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		buf  Buffer
	}{{"foreign process", foreign}, {"foreign system", remote}, {"zero buffer", Buffer{}}} {
		if err := p.FPGAMapObject(VecAddObjA, tc.buf, In); err == nil {
			t.Errorf("%s: buffer mapped", tc.name)
		}
	}
	if err := p.FPGAMapObject(VecAddObjA, own, In); err != nil {
		t.Fatalf("own buffer rejected: %v", err)
	}
}

func TestExclusivePLDOwnership(t *testing.T) {
	sys := newSys(t, Config{})
	p1, _ := sys.NewProcess("p1")
	p2, _ := sys.NewProcess("p2")
	if err := p1.FPGALoad(VecAddBitstream("EPXA1")); err != nil {
		t.Fatal(err)
	}
	if err := p2.FPGALoad(VecAddBitstream("EPXA1")); err == nil {
		t.Fatal("second process acquired a busy PLD")
	}
	p1.FPGAUnload()
	if err := p2.FPGALoad(VecAddBitstream("EPXA1")); err != nil {
		t.Fatalf("PLD not released: %v", err)
	}
}

func TestExecuteBeforeLoadFails(t *testing.T) {
	sys := newSys(t, Config{})
	p, _ := sys.NewProcess("early")
	if _, err := p.FPGAExecute(1); err == nil {
		t.Fatal("FPGA_EXECUTE accepted without FPGA_LOAD")
	}
}

func TestWrongDeviceBitstreamRejected(t *testing.T) {
	sys := newSys(t, Config{Board: "EPXA4"})
	p, _ := sys.NewProcess("wrong")
	if err := p.FPGALoad(VecAddBitstream("EPXA1")); err == nil {
		t.Fatal("EPXA1 image accepted on EPXA4")
	}
}
