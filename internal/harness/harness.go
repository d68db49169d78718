// Package harness wires a coprocessor, an IMU and a dual-port RAM into a
// runnable hardware testbench without any operating-system involvement: the
// TLB and the memory frames are preloaded by the caller and the run fails
// on any translation fault.
//
// It serves tests only: the coprocessor packages verify their models
// against the golden algorithms on it, and its own tests check hit runs
// against edge-by-edge delivery. (The paper's "typical coprocessor"
// baseline of Figure 3/Figure 9, where the application manages the
// physical memory by hand, is internal/baseline on platform.Assemble.)
package harness

import (
	"errors"
	"fmt"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ErrFault is returned when the coprocessor faults although the caller
// promised a complete static mapping.
var ErrFault = errors.New("harness: unexpected translation fault")

// Config describes the bench geometry.
type Config struct {
	CoproHz int64
	IMUHz   int64
	DPBytes int
	PageLog uint // log2 page size
	Mode    imu.Mode
	// Sched selects the simulation scheduler; the zero value
	// (sim.SchedulerDefault) resolves to the package default, the
	// event-driven engine. Differential benches pass sim.Lockstep to run
	// the identical testbench under the reference scheduler.
	Sched sim.Scheduler
}

// DefaultConfig matches the EPXA1 running the vecadd/adpcm clock plan.
func DefaultConfig() Config {
	return Config{
		CoproHz: 40_000_000,
		IMUHz:   40_000_000,
		DPBytes: 16 * 1024,
		PageLog: 11,
		Mode:    imu.MultiCycle,
	}
}

// Bench is an assembled hardware testbench.
type Bench struct {
	Eng      *sim.Engine
	CoproDom *sim.Domain
	IMUDom   *sim.Domain
	DP       *mem.DPRAM
	IMU      *imu.IMU
	Port     *copro.Port
	Core     *copro.Seq

	pageSize int
	wire     copro.HitWire // the port's wiring to the IMU's hit service
}

// New assembles a bench around the given core.
func New(cfg Config, core *copro.Seq) (*Bench, error) {
	if core == nil {
		return nil, fmt.Errorf("harness: nil core")
	}
	if err := sim.CheckClocks(cfg.IMUHz, cfg.CoproHz); err != nil {
		return nil, err
	}
	dp, err := mem.NewDPRAM(cfg.DPBytes, 1<<cfg.PageLog)
	if err != nil {
		return nil, err
	}
	u, err := imu.New(imu.Config{PageShift: cfg.PageLog, Entries: dp.Pages(), Mode: cfg.Mode}, dp)
	if err != nil {
		return nil, err
	}
	b := &Bench{DP: dp, IMU: u, Port: copro.NewPort(), Core: core, pageSize: dp.PageSize()}
	u.Bind(b.Port)
	b.Port.ServeHits(&b.wire, u.HitService(0), cfg.CoproHz, cfg.IMUHz)
	core.Bind(b.Port)

	eng := sim.NewEngine()
	eng.SetScheduler(cfg.Sched)
	imuDom := eng.NewDomain("imu", cfg.IMUHz)
	var coproDom *sim.Domain
	if cfg.CoproHz == cfg.IMUHz {
		coproDom = imuDom
	} else {
		coproDom = eng.NewDomain("copro", cfg.CoproHz)
	}
	// Attach the core before the IMU within a shared domain so that the
	// deterministic order is fixed; two-phase semantics make the order
	// observationally irrelevant, but determinism aids debugging.
	coproDom.Attach(core)
	imuDom.Attach(u)
	b.Eng, b.CoproDom, b.IMUDom = eng, coproDom, imuDom
	return b, nil
}

// MapPage installs a static TLB mapping.
func (b *Bench) MapPage(obj uint8, vpage uint32, frame uint8) error {
	for i := 0; i < b.IMU.Entries(); i++ {
		if !b.IMU.Entry(i).Valid {
			return b.IMU.SetEntry(i, imu.TLBEntry{Valid: true, Obj: obj, VPage: vpage, Frame: frame})
		}
	}
	return fmt.Errorf("harness: TLB full mapping obj %d page %d", obj, vpage)
}

// LoadFrame fills page frame f with data (port B, as the CPU would).
func (b *Bench) LoadFrame(f int, data []byte) error { return b.DP.WritePage(f, data) }

// ReadFrame returns the contents of page frame f.
func (b *Bench) ReadFrame(f int) ([]byte, error) { return b.DP.ReadPage(f) }

// SetParams writes the scalar parameter words into frame 0 and maps the
// parameter page, following the §3.2 convention.
func (b *Bench) SetParams(words ...uint32) error {
	for i, w := range words {
		if err := b.DP.WriteB(uint32(i*4), w, 0xf); err != nil {
			return err
		}
	}
	return b.MapPage(copro.ParamObj, 0, 0)
}

// Run starts the coprocessor and simulates until completion. It returns the
// number of IMU cycles consumed. Any translation fault aborts with ErrFault
// (this bench has no OS to service it).
func (b *Bench) Run(maxEdges int64) (int64, error) {
	b.IMU.Start()
	start := b.IMUDom.Cycles()
	_, err := b.Eng.RunUntil(func() bool {
		return b.IMU.DonePending() || b.IMU.FaultPending()
	}, maxEdges)
	if err != nil {
		return b.IMUDom.Cycles() - start, err
	}
	if b.IMU.FaultPending() {
		return b.IMUDom.Cycles() - start, fmt.Errorf("%w: obj %d addr %#x",
			ErrFault, b.IMU.FaultObj(), b.IMU.FaultAddr())
	}
	b.IMU.AckDone()
	b.Eng.RunCycles(b.IMUDom, 4) // let the ack propagate and the core reset
	return b.IMUDom.Cycles() - start, nil
}

// RunToFin starts the coprocessor and simulates until it raises CP_FIN. It
// returns the IMU cycles consumed, the core's completion time on the bench.
func (b *Bench) RunToFin(maxEdges int64) (int64, error) {
	b.IMU.Start()
	start := b.IMUDom.Cycles()
	_, err := b.Eng.RunUntil(func() bool { return b.Port.CP().Fin || b.IMU.FaultPending() }, maxEdges)
	if err == nil && b.IMU.FaultPending() {
		err = fmt.Errorf("%w: obj %d addr %#x", ErrFault, b.IMU.FaultObj(), b.IMU.FaultAddr())
	}
	return b.IMUDom.Cycles() - start, err
}

// PageSize returns the configured page size in bytes.
func (b *Bench) PageSize() int { return b.pageSize }
