package ideacp

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/harness"
	"repro/internal/imu"
	"repro/internal/ref"
	"repro/internal/sim"
)

// ideaConfig is the paper's clock plan: 6 MHz core, 24 MHz IMU and memory.
func ideaConfig(mode imu.Mode) harness.Config {
	return harness.Config{
		CoproHz: 6_000_000,
		IMUHz:   24_000_000,
		DPBytes: 16 * 1024,
		PageLog: 11,
		Mode:    mode,
	}
}

// encryptOnBench runs the core over in (one page max) with the given key.
func encryptOnBench(t *testing.T, mode imu.Mode, key ref.IDEAKey, in []byte) ([]byte, int64) {
	t.Helper()
	core := New()
	bench, err := harness.New(ideaConfig(mode), core)
	if err != nil {
		t.Fatal(err)
	}
	if len(in)%8 != 0 || len(in) > bench.PageSize() {
		t.Fatalf("input must be whole blocks within a page, got %d bytes", len(in))
	}
	ek := ref.ExpandIDEAKey(key)
	params := []uint32{uint32(len(in) / 8)}
	for _, w := range PackSubkeys(ek) {
		params = append(params, w)
	}
	if err := bench.SetParams(params...); err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadFrame(1, in); err != nil {
		t.Fatal(err)
	}
	if err := bench.MapPage(ObjIn, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := bench.MapPage(ObjOut, 0, 2); err != nil {
		t.Fatal(err)
	}
	cycles, err := bench.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bench.ReadFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	return raw[:len(in)], cycles
}

func TestMatchesGoldenCipher(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var key ref.IDEAKey
	rng.Read(key[:])
	in := make([]byte, 512)
	rng.Read(in)
	got, _ := encryptOnBench(t, imu.MultiCycle, key, in)
	ek := ref.ExpandIDEAKey(key)
	want := ref.IDEAApply(&ek, in)
	if !bytes.Equal(got, want) {
		t.Fatal("coprocessor ciphertext differs from golden model")
	}
}

func TestDecryptionRoundTripThroughHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var key ref.IDEAKey
	rng.Read(key[:])
	in := make([]byte, 256)
	rng.Read(in)
	ek := ref.ExpandIDEAKey(key)
	ct := ref.IDEAApply(&ek, in)

	// Run the *decryption* schedule through the coprocessor.
	core := New()
	bench, err := harness.New(ideaConfig(imu.MultiCycle), core)
	if err != nil {
		t.Fatal(err)
	}
	dk := ref.InvertIDEAKey(ek)
	params := []uint32{uint32(len(ct) / 8)}
	for _, w := range PackSubkeys(dk) {
		params = append(params, w)
	}
	if err := bench.SetParams(params...); err != nil {
		t.Fatal(err)
	}
	if err := bench.LoadFrame(1, ct); err != nil {
		t.Fatal(err)
	}
	if err := bench.MapPage(ObjIn, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := bench.MapPage(ObjOut, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	raw, _ := bench.ReadFrame(2)
	if !bytes.Equal(raw[:len(in)], in) {
		t.Fatal("hardware decryption did not recover the plaintext")
	}
}

func TestKnownAnswerVectorThroughHardware(t *testing.T) {
	var key ref.IDEAKey
	for i := 0; i < 8; i++ {
		key[2*i+1] = byte(i + 1)
	}
	// Plaintext 0000 0001 0002 0003 big-endian.
	in := []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03}
	got, _ := encryptOnBench(t, imu.MultiCycle, key, in)
	want := []byte{0x11, 0xfb, 0xed, 0x2b, 0x01, 0x98, 0x6d, 0xe5}
	if !bytes.Equal(got, want) {
		t.Fatalf("ciphertext = %x, want %x", got, want)
	}
}

func TestPipelinedIMUIsFasterSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var key ref.IDEAKey
	rng.Read(key[:])
	in := make([]byte, 512)
	rng.Read(in)
	multi, cm := encryptOnBench(t, imu.MultiCycle, key, in)
	pipe, cp := encryptOnBench(t, imu.Pipelined, key, in)
	if !bytes.Equal(multi, pipe) {
		t.Fatal("IMU mode changed the computation")
	}
	if cp >= cm {
		t.Fatalf("pipelined IMU (%d cycles) not faster than multi-cycle (%d)", cp, cm)
	}
}

func TestSubkeyPacking(t *testing.T) {
	var ek [ref.IDEASubkeys]uint16
	for i := range ek {
		ek[i] = uint16(i * 257)
	}
	packed := PackSubkeys(ek)
	for i, w := range packed {
		if uint16(w) != ek[2*i] || uint16(w>>16) != ek[2*i+1] {
			t.Fatalf("word %d mispacked", i)
		}
	}
}

func TestEndiannessHelpers(t *testing.T) {
	x1, x2 := be16Pair(0x44332211)
	if x1 != 0x1122 || x2 != 0x3344 {
		t.Fatalf("be16Pair = %04x %04x", x1, x2)
	}
	if le32FromBE(x1, x2) != 0x44332211 {
		t.Fatal("le32FromBE not the inverse of be16Pair")
	}
}

// TestTimingPinned pins the core's cycle timing on a fixed 64-byte input
// under the lockstep scheduler, in both IMU modes: the IMU cycle at which
// CP_FIN rises and the Mem counters. A change to the Program's steps or
// compute lengths that still produces the right ciphertext fails here.
func TestTimingPinned(t *testing.T) {
	for _, c := range []struct {
		mode                imu.Mode
		fin                 int64
		reads, writes, wait uint64
	}{
		{imu.MultiCycle, 1096, 43, 16, 59},
		{imu.Pipelined, 860, 43, 16, 0},
	} {
		cfg := ideaConfig(c.mode)
		cfg.Sched = sim.Lockstep
		core := New()
		bench, err := harness.New(cfg, core)
		if err != nil {
			t.Fatal(err)
		}
		var key ref.IDEAKey
		for i := range key {
			key[i] = byte(3*i + 1)
		}
		sub := PackSubkeys(ref.ExpandIDEAKey(key))
		params := append([]uint32{8}, sub[:]...)
		in := make([]byte, 64)
		for i := range in {
			in[i] = byte(i * 7)
		}
		for _, err := range []error{bench.SetParams(params...), bench.LoadFrame(1, in),
			bench.MapPage(ObjIn, 0, 1), bench.MapPage(ObjOut, 0, 2)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		fin, err := bench.RunToFin(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		m := &core.Mem
		if fin != c.fin || m.Reads != c.reads || m.Writes != c.writes || m.WaitCycles != c.wait {
			t.Errorf("%v: CP_FIN at IMU cycle %d, %d reads, %d writes, %d wait cycles; want %d, %d, %d, %d",
				c.mode, fin, m.Reads, m.Writes, m.WaitCycles, c.fin, c.reads, c.writes, c.wait)
		}
	}
}
