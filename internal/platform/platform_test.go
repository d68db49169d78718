package platform

import (
	"testing"

	"repro/internal/copro/vecadd"
)

func TestSpecsAreConsistent(t *testing.T) {
	for _, spec := range []Spec{EPXA1(), EPXA4(), EPXA10()} {
		if spec.DPBytes%(1<<spec.PageLog) != 0 {
			t.Errorf("%s: DP RAM %d not a multiple of page size", spec.Name, spec.DPBytes)
		}
		if spec.CPUHz <= 0 || spec.BusDiv <= 0 {
			t.Errorf("%s: bad clocks", spec.Name)
		}
	}
	if EPXA4().DPBytes <= EPXA1().DPBytes || EPXA10().DPBytes <= EPXA4().DPBytes {
		t.Error("DP RAM sizes must grow EPXA1 < EPXA4 < EPXA10")
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"", "EPXA1", "epxa4", "EPXA10"} {
		if _, ok := SpecByName(name); !ok {
			t.Errorf("SpecByName(%q) failed", name)
		}
	}
	if _, ok := SpecByName("EPXA99"); ok {
		t.Error("unknown board accepted")
	}
}

func TestNewBoardWiresAddressMap(t *testing.T) {
	b, err := NewBoard(EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	// SDRAM reachable at its base.
	if err := b.Bus.Write32(SDRAMBase+0x100, 0x11223344); err != nil {
		t.Fatal(err)
	}
	// DP RAM reachable through its window.
	if err := b.Bus.Write32(DPBase+4, 0x55667788); err != nil {
		t.Fatal(err)
	}
	v, err := b.DP.ReadB(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x55667788 {
		t.Fatalf("DP RAM via bus = %#x", v)
	}
	// IMU registers reachable.
	if _, err := b.Bus.Read32(IMURegBase); err != nil {
		t.Fatal(err)
	}
	// The largest board must also wire cleanly (no address overlap).
	if _, err := NewBoard(EPXA10()); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSlotValidatesClock pins LoadSlot's clock check: a core clock must
// be positive and divide the shell clock, and a rejected load leaves the
// slot as it was.
func TestLoadSlotValidatesClock(t *testing.T) {
	b, err := NewBoard(EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		shellHz int64
		coreHz  []int64
	}{
		{24_000_000, []int64{0, -6_000_000, 16_000_000, 7_000_000}}, // non-integer ratio
		{1 << 40, []int64{3 << 40, 1<<62 - 1}},                      // beyond the schedule
	} {
		hw, err := b.AssembleShell(c.shellHz, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, hz := range c.coreHz {
			if err := hw.LoadSlot(b, 0, vecadd.New(), hz); err == nil {
				t.Errorf("%d Hz core accepted on a %d Hz shell", hz, c.shellHz)
			}
			if hw.Slots[0].Resident() != "" || hw.Slots[0].Port() != nil {
				t.Errorf("rejected %d Hz load changed the slot", hz)
			}
		}
	}
	hw, err := b.AssembleShell(24_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.LoadSlot(b, 1, vecadd.New(), 6_000_000); err != nil {
		t.Fatal(err)
	}
	if hw.Slots[1].div != 4 {
		t.Fatalf("6 MHz core on a 24 MHz shell: divisor %d, want 4", hw.Slots[1].div)
	}
}

// TestSlotStagingBuffer pins the pre-staged reconfiguration primitives: a
// bitstream staged behind a resident core leaves the slot's ticking and
// identity untouched, CommitSlot swaps it in and rebinds the IMU channel,
// TakeStage empties the buffer, and CancelStage discards a stage without
// disturbing the resident core.
func TestSlotStagingBuffer(t *testing.T) {
	b, err := NewBoard(EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	hw, err := b.AssembleShell(24_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.LoadSlot(b, 0, vecadd.New(), 24_000_000); err != nil {
		t.Fatal(err)
	}
	if got := hw.Slots[0].Resident(); got != "vecadd" {
		t.Fatalf("resident = %q, want vecadd", got)
	}

	// An empty slot has an empty staging buffer; committing it is an error.
	if got := hw.Slots[0].Staged(); got != "" {
		t.Fatalf("fresh slot stages %q", got)
	}
	if err := hw.CommitSlot(b, 0); err == nil {
		t.Fatal("CommitSlot with an empty staging buffer succeeded")
	}

	// Staging does not disturb the resident core.
	staged := vecadd.New()
	hw.Slots[0].Stage(staged)
	if got := hw.Slots[0].Resident(); got != "vecadd" {
		t.Fatalf("staging evicted the resident core: resident = %q", got)
	}
	if got := hw.Slots[0].Staged(); got != "vecadd" {
		t.Fatalf("staged = %q, want vecadd", got)
	}

	// Cancel discards only the buffer.
	hw.Slots[0].CancelStage()
	if got := hw.Slots[0].Staged(); got != "" {
		t.Fatalf("cancel left %q staged", got)
	}
	if hw.Slots[0].Core() == nil {
		t.Fatal("cancel dropped the resident core")
	}

	// Commit swaps the staged core in as resident over a fresh port.
	hw.Slots[0].Stage(staged)
	oldPort := hw.Slots[0].Port()
	if err := hw.CommitSlot(b, 0); err != nil {
		t.Fatal(err)
	}
	if hw.Slots[0].Core() != staged {
		t.Fatal("commit did not make the staged core resident")
	}
	if hw.Slots[0].Staged() != "" {
		t.Fatal("commit left the staging buffer full")
	}
	if hw.Slots[0].Port() == oldPort {
		t.Fatal("commit reused the evicted core's port")
	}

	// TakeStage empties the buffer and hands the core back.
	other := vecadd.New()
	hw.Slots[1].Stage(other)
	if got := hw.Slots[1].TakeStage(); got != other {
		t.Fatalf("TakeStage returned %v", got)
	}
	if got := hw.Slots[1].TakeStage(); got != nil {
		t.Fatalf("second TakeStage returned %v, want nil", got)
	}
}
