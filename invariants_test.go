package repro_test

import (
	"math/rand"
	"testing"

	"repro"
	"repro/internal/exp"
)

// TestBitReproducibility asserts the simulation is fully deterministic:
// identical configurations and seeds produce identical reports down to the
// picosecond and every counter.
func TestBitReproducibility(t *testing.T) {
	run := func() *repro.Report {
		rep, err := exp.Run(repro.Config{Policy: "random", Seed: 1234}, "idea", "vim", 16384, 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestCounterConsistency cross-checks the bookkeeping of the three layers
// (IMU hardware counters, VIM counters, report) against each other.
func TestCounterConsistency(t *testing.T) {
	rep, err := exp.Run(repro.Config{}, "adpcm", "vim", 8192, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every VIM fault service corresponds to one hardware fault.
	if rep.VIM.Faults != rep.IMU.Faults {
		t.Errorf("VIM faults %d != IMU faults %d", rep.VIM.Faults, rep.IMU.Faults)
	}
	// The coprocessor performs one access per input byte (read) and two
	// per byte of samples (writes): total = nbytes reads + 2*nbytes
	// writes + 1 param read + faulted retries are the same accesses.
	wantAccesses := uint64(8192 + 2*8192 + 1)
	if rep.IMU.Accesses != wantAccesses {
		t.Errorf("IMU accesses = %d, want %d", rep.IMU.Accesses, wantAccesses)
	}
	// Hits are the completed translations; every access eventually hits.
	if rep.IMU.Hits != rep.IMU.Accesses {
		t.Errorf("hits %d != accesses %d", rep.IMU.Hits, rep.IMU.Accesses)
	}
	// Pages loaded + elided = initial mapping + fault services.
	if rep.VIM.PagesLoaded+rep.VIM.LoadsElided == 0 {
		t.Error("no page activity recorded")
	}
	// Write-back volume matches the flushed + evicted dirty pages at page
	// granularity (the output object is 4x the input).
	if rep.VIM.BytesOut == 0 {
		t.Error("no bytes written back for a producing coprocessor")
	}
	// Data volume in: input object (8 KB) + parameter page loads are not
	// counted as object bytes; at least the input must have moved once.
	if rep.VIM.BytesIn < 8192 {
		t.Errorf("BytesIn = %d, want >= 8192", rep.VIM.BytesIn)
	}
	// Every evicted frame was either reloaded or stayed free: evictions
	// can never exceed faults (only fault service evicts).
	if rep.VIM.Evictions > rep.VIM.Faults {
		t.Errorf("evictions %d > faults %d", rep.VIM.Evictions, rep.VIM.Faults)
	}
}

// TestConfigValidation covers the facade's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := repro.NewSystem(repro.Config{Board: "EPXA99"}); err == nil {
		t.Error("unknown board accepted")
	}
	if _, err := repro.NewSystem(repro.Config{Policy: "optimal"}); err == nil {
		t.Error("unknown policy accepted")
	}
	sys, err := repro.NewSystem(repro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewProcess("v")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := p.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(make([]byte, 17)); err == nil {
		t.Error("oversized buffer write accepted")
	}
	if err := p.FPGAMapObject(-1, buf, repro.In); err == nil {
		t.Error("negative object id accepted")
	}
	if err := p.FPGAMapObject(255, buf, repro.In); err == nil {
		t.Error("reserved object id accepted")
	}
	if _, err := p.Alloc(0); err == nil {
		t.Error("zero-byte alloc accepted")
	}
}

// TestQuickFacadeRandomSizes is the facade-level randomized sweep: random
// IDEA sizes and policies must always produce golden ciphertext (checked
// inside exp.Run, whose report is error-free only on golden output, and
// here against the golden model directly).
func TestQuickFacadeRandomSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized sweep")
	}
	rng := rand.New(rand.NewSource(2024))
	policies := []string{"fifo", "lru", "clock", "random"}
	for i := 0; i < 8; i++ {
		blocks := 64 + rng.Intn(2048)
		n := blocks * 8
		pol := policies[rng.Intn(len(policies))]

		sys, err := repro.NewSystem(repro.Config{Policy: pol, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.NewProcess("sweep")
		if err != nil {
			t.Fatal(err)
		}
		in, _ := p.Alloc(n)
		out, _ := p.Alloc(n)
		var key repro.IDEAKey
		rng.Read(key[:])
		plain := make([]byte, n)
		rng.Read(plain)
		if err := in.Write(plain); err != nil {
			t.Fatal(err)
		}
		if err := p.FPGALoad(repro.IDEABitstream("EPXA1")); err != nil {
			t.Fatal(err)
		}
		_ = p.FPGAMapObject(repro.IDEAObjIn, in, repro.In)
		_ = p.FPGAMapObject(repro.IDEAObjOut, out, repro.Out)
		if _, err := p.FPGAExecute(repro.IDEAEncryptParams(key, blocks)...); err != nil {
			t.Fatalf("n=%d policy=%s: %v", n, pol, err)
		}
		got, _ := out.Read()
		want := repro.GoldenIDEAEncrypt(key, plain)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("n=%d policy=%s: byte %d differs", n, pol, j)
			}
		}
	}
}
