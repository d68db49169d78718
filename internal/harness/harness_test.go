package harness

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/copro"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/vecadd"
	"repro/internal/imu"
	"repro/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil core accepted")
	}
	cfg := DefaultConfig()
	cfg.DPBytes = 1000 // not a multiple of the page size
	if _, err := New(cfg, vecadd.New()); err == nil {
		t.Fatal("bad DP geometry accepted")
	}
	cfg = DefaultConfig()
	cfg.CoproHz = 7_000_000 // non-integer ratio vs 40 MHz
	cfg.IMUHz = 40_000_000
	if _, err := New(cfg, vecadd.New()); err == nil {
		t.Fatal("non-integer clock ratio accepted")
	}
}

func TestSetParamsWritesFrameZeroAndMaps(t *testing.T) {
	b, err := New(DefaultConfig(), vecadd.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetParams(0x11, 0x22, 0x33); err != nil {
		t.Fatal(err)
	}
	w, _ := b.DP.ReadB(4)
	if w != 0x22 {
		t.Fatalf("param word 1 = %#x", w)
	}
	// One TLB entry must map the parameter object.
	found := false
	for i := 0; i < b.IMU.Entries(); i++ {
		e := b.IMU.Entry(i)
		if e.Valid && e.Obj == copro.ParamObj {
			found = true
		}
	}
	if !found {
		t.Fatal("parameter page not mapped")
	}
}

func TestRunFailsOnFault(t *testing.T) {
	b, err := New(DefaultConfig(), vecadd.New())
	if err != nil {
		t.Fatal(err)
	}
	// Params mapped but data objects absent: the first A-access faults
	// and the bench — having no OS — must turn it into an error.
	if err := b.SetParams(8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(100000); !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
}

func TestMapPageExhaustion(t *testing.T) {
	b, err := New(DefaultConfig(), vecadd.New())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.IMU.Entries(); i++ {
		if err := b.MapPage(0, uint32(i), uint8(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.MapPage(1, 0, 0); err == nil {
		t.Fatal("TLB exhaustion not reported")
	}
}

// TestSchedulerDifferentialBench runs the same adpcmdecode testbench —
// statically mapped, no OS — under the lockstep reference and the
// event-driven scheduler (whose bulk-skip jumps the core's serial decode
// countdowns) and requires identical cycle counts, outputs and port
// statistics.
func TestSchedulerDifferentialBench(t *testing.T) {
	const nbytes = 64
	run := func(sched sim.Scheduler) (int64, []byte, uint64, uint64) {
		cfg := DefaultConfig()
		cfg.Sched = sched
		core := adpcmdec.New()
		b, err := New(cfg, core)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, nbytes)
		for i := range in {
			in[i] = byte(i*37 + 11)
		}
		if err := b.LoadFrame(1, in); err != nil {
			t.Fatal(err)
		}
		if err := b.SetParams(nbytes); err != nil {
			t.Fatal(err)
		}
		if err := b.MapPage(adpcmdec.ObjIn, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.MapPage(adpcmdec.ObjOut, 0, 2); err != nil {
			t.Fatal(err)
		}
		cycles, err := b.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.ReadFrame(2)
		if err != nil {
			t.Fatal(err)
		}
		m := &core.Mem
		return cycles, out[:nbytes*4], m.Reads + m.Writes, m.WaitCycles
	}
	lockCy, lockOut, lockAcc, lockWait := run(sim.Lockstep)
	evntCy, evntOut, evntAcc, evntWait := run(sim.EventDriven)
	if lockCy != evntCy {
		t.Errorf("cycles: lockstep %d, event %d", lockCy, evntCy)
	}
	if lockAcc != evntAcc || lockWait != evntWait {
		t.Errorf("port stats: lockstep %d/%d, event %d/%d", lockAcc, lockWait, evntAcc, evntWait)
	}
	for i := 0; i < len(lockOut); i += 2 {
		if binary.LittleEndian.Uint16(lockOut[i:]) != binary.LittleEndian.Uint16(evntOut[i:]) {
			t.Fatalf("sample %d: lockstep %#x, event %#x", i/2,
				binary.LittleEndian.Uint16(lockOut[i:]), binary.LittleEndian.Uint16(evntOut[i:]))
		}
	}
}

func TestRunConsumesCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = imu.MultiCycle
	core := vecadd.New()
	b, err := New(cfg, core)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetParams(0); err != nil { // zero elements: park at done
		t.Fatal(err)
	}
	cycles, err := b.Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles consumed")
	}
	if b.PageSize() != 2048 {
		t.Fatalf("page size = %d", b.PageSize())
	}
}
