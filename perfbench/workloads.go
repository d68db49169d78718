package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/ref"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

const (
	psPerMs = 1e9
	psPerS  = 1e12

	// overload is the offered load of both serving workloads, as a multiple
	// of the pinned single-board knee.
	overload = 2.0
	// fleetBoards is the fleet-affinity pool size.
	fleetBoards = 4
	// samplePs is the telemetry gauge sampling interval of traced ops: one
	// simulated millisecond.
	samplePs = 1e9

	cellsBoard  = "EPXA1"
	cellsPolicy = "fifo"
	ideaBytes   = 32 << 10
	adpcmBytes  = 8 << 10
	vecaddElems = 16 << 10
)

// workload is one named input family. An op is one closed-loop request: the
// next op starts only when the previous one has returned.
type workload struct {
	name        string
	goldenFile  string // testdata file holding the cells the default seed must reproduce
	defaultSeed int64
	jobsPerOp   int // a paper cell counts as one job
	// prepare generates the op inputs from seed; spans go to tr.
	prepare func(g *golden, seed int64, tr *tracer) (bench, error)
}

// bench is one workload's prepared inputs. op runs one op on them,
// verifies its outputs, and returns its measurements. A non-nil tracer
// records spans and fills the outcome's per-layer values.
type bench interface {
	op(tr *tracer) (*outcome, error)
}

// outcome is what one op measured.
type outcome struct {
	id         int           // the op's number within its run; spans carry it
	scale      float64       // reference-host scale of the op's host times (see probe)
	host       time.Duration // host time of the op's timed part
	simCall    time.Duration // host time inside the simulating calls (FPGAExecute, Serve, fleet.Run)
	allocBytes uint64        // heap bytes the timed part allocated (untraced ops)
	allocs     uint64        // heap allocations the timed part made (untraced ops)

	digest string                        // hash of every simulated result
	sim    map[string]float64            // simulated end-to-end metrics
	cells  map[string]map[string]float64 // results comparable with pinned cells, by cell name
	layer  map[string]float64            // per-layer values (traced ops)
}

// timed runs fn as the op's timed part. Untraced ops also count the heap
// allocation it makes; the reads stop the world, so they stay outside the
// timed interval.
func (o *outcome) timed(tr *tracer, fn func() error) error {
	var before, after runtime.MemStats
	if tr == nil {
		runtime.ReadMemStats(&before)
	}
	t0 := now()
	err := fn()
	o.host = now() - t0
	if tr == nil {
		runtime.ReadMemStats(&after)
		o.allocBytes = after.TotalAlloc - before.TotalAlloc
		o.allocs = after.Mallocs - before.Mallocs
	}
	return err
}

// call runs fn; a traced op also adds the heap megabytes fn allocates to
// its per-layer value key.
func (o *outcome) call(tr *tracer, key string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	o.layer[key] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// digest hashes the JSON form of v.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

var workloads = []workload{
	{name: "paper-cells", goldenFile: "golden_cells.json", defaultSeed: 4242, jobsPerOp: 4, prepare: preparePaperCells},
	{name: "serve-overload", goldenFile: "saturate_cells.json", defaultSeed: exp.SaturateSeed, jobsPerOp: exp.SaturateJobs, prepare: prepareServe},
	{name: "fleet-affinity", goldenFile: "fleet_cells.json", defaultSeed: exp.FleetSeed, jobsPerOp: exp.FleetJobsPerBoard * fleetBoards, prepare: prepareFleet},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// --- paper-cells -------------------------------------------------------

// object is one buffer an op maps into a coprocessor's virtual interface.
type object struct {
	id   int
	dir  repro.Direction
	data []byte // input contents; nil for the output
	size int
}

// vimCell is one §4 cell served through the virtual interface.
type vimCell struct {
	name   string // pinned cell name
	proc   string
	image  []byte
	objs   []object
	params []uint32
	want   []byte // expected output contents
}

// paperCells is one boot-and-run of four §4 cells per op: IDEA, ADPCM and
// vecadd through the VIM, then IDEA in timed software on the IDEA cell's
// data.
type paperCells struct {
	cells  []vimCell
	key    repro.IDEAKey
	plain  []byte
	cipher []byte
}

// preparePaperCells draws each cell's data from seed exactly as the golden
// cells do, and computes every expected output from internal/ref.
func preparePaperCells(_ *golden, seed int64, _ *tracer) (bench, error) {
	c := &paperCells{}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(c.key[:])
	c.plain = make([]byte, ideaBytes)
	rng.Read(c.plain)
	ek := ref.ExpandIDEAKey(c.key)
	c.cipher = ref.IDEAApply(&ek, c.plain)

	packed := make([]byte, adpcmBytes)
	rand.New(rand.NewSource(seed)).Read(packed)
	samples := ref.ADPCMDecode(ref.ADPCMState{}, packed)
	pcm := make([]byte, 2*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint16(pcm[2*i:], uint16(s))
	}

	vrng := rand.New(rand.NewSource(seed))
	a := make([]byte, 4*vecaddElems)
	b := make([]byte, 4*vecaddElems)
	vrng.Read(a)
	vrng.Read(b)
	sum := make([]byte, 4*vecaddElems)
	for i := 0; i < len(sum); i += 4 {
		binary.LittleEndian.PutUint32(sum[i:], binary.LittleEndian.Uint32(a[i:])+binary.LittleEndian.Uint32(b[i:]))
	}

	cell := func(app string) string { return app + "/" + cellsBoard + "/" + cellsPolicy }
	c.cells = []vimCell{
		{
			name: cell("idea"), proc: "idea", image: repro.IDEABitstream(cellsBoard),
			objs: []object{
				{id: repro.IDEAObjIn, dir: repro.In, data: c.plain},
				{id: repro.IDEAObjOut, dir: repro.Out, size: ideaBytes},
			},
			params: repro.IDEAEncryptParams(c.key, ideaBytes/ref.IDEABlockBytes),
			want:   c.cipher,
		},
		{
			name: cell("adpcm"), proc: "adpcm", image: repro.ADPCMBitstream(cellsBoard),
			objs: []object{
				{id: repro.ADPCMObjIn, dir: repro.In, data: packed},
				{id: repro.ADPCMObjOut, dir: repro.Out, size: 4 * adpcmBytes},
			},
			params: []uint32{adpcmBytes},
			want:   pcm,
		},
		{
			name: cell("vecadd"), proc: "vecadd", image: repro.VecAddBitstream(cellsBoard),
			objs: []object{
				{id: repro.VecAddObjA, dir: repro.In, data: a},
				{id: repro.VecAddObjB, dir: repro.In, data: b},
				{id: repro.VecAddObjC, dir: repro.Out, size: 4 * vecaddElems},
			},
			params: []uint32{vecaddElems},
			want:   sum,
		},
	}
	return c, nil
}

// ran is one finished cell awaiting verification.
type ran struct {
	name string
	out  repro.Buffer
	want []byte
	rep  *repro.Report
}

func (c *paperCells) op(tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var runs []ran
	err := o.timed(tr, func() error {
		for i := range c.cells {
			r, err := c.runVIM(tr, &c.cells[i], o)
			if err != nil {
				return fmt.Errorf("%s: %w", c.cells[i].name, err)
			}
			runs = append(runs, r)
		}
		r, err := c.runSW(tr, o)
		if err != nil {
			return fmt.Errorf("idea-sw: %w", err)
		}
		runs = append(runs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.cells = map[string]map[string]float64{}
	reps := make([]*repro.Report, len(runs))
	simPs := 0.0
	for i, r := range runs {
		got, err := r.out.Read()
		if err != nil {
			return nil, fmt.Errorf("%s: reading output: %w", r.name, err)
		}
		if !bytes.Equal(got, r.want) {
			return nil, fmt.Errorf("%s: output differs from the reference model", r.name)
		}
		reps[i] = r.rep
		simPs += r.rep.TotalPs()
		if i < len(c.cells) {
			o.cells[r.name] = map[string]float64{
				"total_ps": r.rep.TotalPs(),
				"hw_ps":    r.rep.HWPs,
				"swdp_ps":  r.rep.SWDPPs,
				"swimu_ps": r.rep.SWIMUPs,
				"swos_ps":  r.rep.SWOSPs,
				"faults":   float64(r.rep.VIM.Faults),
				"hw_cy":    float64(r.rep.HWCy),
			}
		}
	}
	o.sim = map[string]float64{"sim_ms": simPs / psPerMs}
	o.digest, err = digest(reps)
	return o, err
}

// boot starts a fresh EPXA1 system.
func boot(tr *tracer, o *outcome) (sys *repro.System, err error) {
	sp := tr.begin("platform.boot")
	o.call(tr, "platform.boot_alloc_mb", func() {
		sys, err = repro.NewSystem(repro.Config{Board: cellsBoard, Policy: cellsPolicy})
	})
	tr.end(sp)
	return sys, err
}

// runVIM serves one cell through the virtual interface on a fresh system,
// in the call order the golden cells were captured with.
func (c *paperCells) runVIM(tr *tracer, cell *vimCell, o *outcome) (ran, error) {
	sp := tr.begin("cell")
	defer tr.end(sp)
	sys, err := boot(tr, o)
	if err != nil {
		return ran{}, err
	}
	p, err := sys.NewProcess(cell.proc)
	if err != nil {
		return ran{}, err
	}
	bufs := make([]repro.Buffer, len(cell.objs))
	var out repro.Buffer
	for i, ob := range cell.objs {
		n := ob.size
		if ob.data != nil {
			n = len(ob.data)
		}
		if bufs[i], err = p.Alloc(n); err != nil {
			return ran{}, err
		}
		if ob.data == nil {
			out = bufs[i]
		}
	}
	for i, ob := range cell.objs {
		if ob.data != nil {
			if err := bufs[i].Write(ob.data); err != nil {
				return ran{}, err
			}
		}
	}
	ld := tr.begin("core.load")
	err = p.FPGALoad(cell.image)
	tr.end(ld)
	if err != nil {
		return ran{}, err
	}
	for i, ob := range cell.objs {
		if err := p.FPGAMapObject(ob.id, bufs[i], ob.dir); err != nil {
			return ran{}, err
		}
	}
	ex := tr.begin("core.execute")
	t0 := now()
	rep, err := p.FPGAExecute(cell.params...)
	o.simCall += now() - t0
	tr.end(ex)
	if err != nil {
		return ran{}, err
	}
	if tr != nil {
		st := p.Session().HW.Eng.Stats()
		l := o.layer
		l["sim.edges_delivered"] += float64(st.EdgesDelivered)
		l["sim.edges_skipped"] += float64(st.EdgesSkipped)
		l["sim.heap_ops"] += float64(st.HeapOps)
		l["imu.channels_bound"] = float64(sys.Board().IMU.Channels())
		addIMU(l, rep.IMU.Accesses, rep.IMU.Hits, rep.IMU.Faults, rep.IMU.FaultCycles)
		addVIM(l, rep.VIM.Faults, rep.VIM.Evictions, rep.VIM.Writebacks, rep.VIM.PagesLoaded, rep.VIM.LoadsElided, rep.VIM.BytesIn+rep.VIM.BytesOut)
		l["core.hw_ms"] += rep.HWPs / psPerMs
		l["core.sw_dp_ms"] += rep.SWDPPs / psPerMs
		l["core.sw_imu_ms"] += rep.SWIMUPs / psPerMs
		l["core.sw_os_ms"] += rep.SWOSPs / psPerMs
	}
	return ran{name: cell.name, out: out, want: cell.want, rep: rep}, nil
}

// runSW runs the IDEA cell's data through the timed software cipher.
func (c *paperCells) runSW(tr *tracer, o *outcome) (ran, error) {
	sp := tr.begin("cell")
	defer tr.end(sp)
	sys, err := boot(tr, o)
	if err != nil {
		return ran{}, err
	}
	p, err := sys.NewProcess("idea-sw")
	if err != nil {
		return ran{}, err
	}
	in, err := p.Alloc(ideaBytes)
	if err != nil {
		return ran{}, err
	}
	out, err := p.Alloc(ideaBytes)
	if err != nil {
		return ran{}, err
	}
	if err := in.Write(c.plain); err != nil {
		return ran{}, err
	}
	run := tr.begin("sw.run")
	rep, err := p.RunIDEASW(c.key, in, out)
	tr.end(run)
	if err != nil {
		return ran{}, err
	}
	if tr != nil {
		o.layer["sw.cpu_cycles"] = rep.PurePs * float64(sys.Board().Spec.CPUHz) / psPerS
	}
	return ran{name: "idea-sw", out: out, want: c.cipher, rep: rep}, nil
}

func addIMU(l map[string]float64, accesses, hits, faults, faultCycles uint64) {
	l["imu.accesses"] += float64(accesses)
	l["imu.tlb_hits"] += float64(hits)
	l["imu.faults"] += float64(faults)
	l["imu.fault_cycles"] += float64(faultCycles)
	l["imu.tlb_hit_ratio"] = ratio(l["imu.tlb_hits"], l["imu.accesses"])
}

func addVIM(l map[string]float64, faults, evictions, writebacks, loaded, elided, moved uint64) {
	l["vim.faults"] += float64(faults)
	l["vim.evictions"] += float64(evictions)
	l["vim.writebacks"] += float64(writebacks)
	l["vim.pages_loaded"] += float64(loaded)
	l["vim.loads_elided"] += float64(elided)
	l["vim.bytes_moved"] += float64(moved)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- serving workloads ---------------------------------------------------

// reseed redraws every job's input-data seed from seed, keeping the pinned
// stream's arrivals, applications and sizes: a held-out seed changes what
// the jobs compute, not how much they compute.
func reseed(jobs []rcsched.Job, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range jobs {
		jobs[i].Seed = rng.Int63()
	}
}

// stream builds a workload's job stream: the pinned stream, reseeded
// unless seed is the default.
func stream(tr *tracer, seed, defaultSeed int64, gen func() ([]rcsched.Job, error)) ([]rcsched.Job, error) {
	sp := tr.begin("traffic.stream")
	jobs, err := gen()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if seed != defaultSeed {
		reseed(jobs, seed)
	}
	return jobs, nil
}

// checkServed verifies that every generated job reached exactly one final
// disposition. Serve itself verifies each served job's output against the
// golden algorithm before detaching it, and fails the run otherwise.
func checkServed(jobs []rcsched.Job, reps []rcsched.JobReport) error {
	if len(reps) != len(jobs) {
		return fmt.Errorf("%d job reports for %d jobs", len(reps), len(jobs))
	}
	seen := make(map[int]bool, len(jobs))
	for _, j := range reps {
		switch j.Disposition {
		case rcsched.Admitted, rcsched.Degraded, rcsched.Rejected:
		default:
			return fmt.Errorf("job %d has no final disposition (%q)", j.ID, j.Disposition)
		}
		if seen[j.ID] {
			return fmt.Errorf("job %d reported twice", j.ID)
		}
		seen[j.ID] = true
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			return fmt.Errorf("job %d never reported", j.ID)
		}
	}
	return nil
}

// queueDepthMax is the deepest the admission queue got: admitted jobs wait
// from arrival until their dispatch decision.
func queueDepthMax(jobs []rcsched.JobReport) float64 {
	type edge struct {
		atPs  float64
		delta int
	}
	var edges []edge
	for _, j := range jobs {
		if j.Disposition == rcsched.Admitted {
			edges = append(edges, edge{j.ArrivalPs, 1}, edge{j.ArrivalPs + j.QueueWaitPs, -1})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].atPs != edges[b].atPs {
			return edges[a].atPs < edges[b].atPs
		}
		return edges[a].delta < edges[b].delta
	})
	depth, deepest := 0, 0
	for _, e := range edges {
		depth += e.delta
		deepest = max(deepest, depth)
	}
	return float64(deepest)
}

// servingLayers fills the rcsched per-layer values from the merged job
// reports and run totals of one serving op.
func servingLayers(l map[string]float64, jobs []rcsched.JobReport, reconfigs, admitted int, shed, miss, configPs, util float64) {
	resident := 0
	var waits []float64
	for _, j := range jobs {
		if j.Disposition != rcsched.Admitted {
			continue
		}
		waits = append(waits, j.QueueWaitPs/psPerMs)
		if !j.Reconfigured && !j.Staged {
			resident++
		}
	}
	l["rcsched.reconfig_ratio"] = ratio(float64(reconfigs), float64(admitted))
	l["rcsched.resident_dispatch_ratio"] = ratio(float64(resident), float64(admitted))
	l["rcsched.shed_ratio"] = shed
	l["rcsched.miss_ratio"] = miss
	l["rcsched.queue_wait_ms_p50"] = quantile(waits, 0.5)
	l["rcsched.config_ms"] = configPs / psPerMs
	l["rcsched.slot_util"] = util
}

// meterLayers copies the sim engine's tallies, which only a Meter carries,
// summed over every board the meter absorbed.
func meterLayers(l map[string]float64, m *telemetry.Meter) {
	names := map[string]string{
		"sim_edges_delivered_total": "sim.edges_delivered",
		"sim_edges_skipped_total":   "sim.edges_skipped",
		"sim_heap_ops_total":        "sim.heap_ops",
	}
	for _, s := range m.Dump().Series {
		if name, ok := names[s.Name]; ok {
			l[name] += float64(s.Counter)
		}
	}
}

// exportTelemetry renders the meter's JSON dump and Chrome trace, as
// vimsim's -metrics-out and -trace-out do.
func exportTelemetry(tr *tracer, m *telemetry.Meter) error {
	sp := tr.begin("telemetry.export")
	defer tr.end(sp)
	if _, err := m.DumpJSON(); err != nil {
		return err
	}
	_, err := m.Trace().Marshal()
	return err
}

// serveOverload is one rcsched.Serve of the SATURATE Poisson stream at
// twice the pinned knee on the 2-slot EPXA4 slack board with admission
// reject.
type serveOverload struct {
	cell string
	cfg  rcsched.Config
	jobs []rcsched.Job
}

func prepareServe(g *golden, seed int64, tr *tracer) (bench, error) {
	jobs, err := stream(tr, seed, exp.SaturateSeed, func() ([]rcsched.Job, error) {
		return exp.SaturateStream(overload * g.KneeRPS)
	})
	if err != nil {
		return nil, err
	}
	return &serveOverload{
		cell: fmt.Sprintf("slack/%s/%gx", rcsched.AdmitReject, overload),
		cfg:  exp.SaturateConfig("slack", rcsched.AdmitReject),
		jobs: jobs,
	}, nil
}

func (s *serveOverload) op(tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	cfg := s.cfg
	if tr != nil {
		cfg.Meter = telemetry.NewMeter(samplePs)
	}
	var rep *rcsched.Report
	err := o.timed(tr, func() error {
		var err error
		sp := tr.begin("rcsched.serve")
		o.call(tr, "rcsched.serve_alloc_mb", func() {
			t0 := now()
			rep, err = rcsched.Serve(cfg, s.jobs)
			o.simCall = now() - t0
		})
		if d := tr.end(sp); tr != nil {
			o.layer["rcsched.host_us_per_job"] = float64(d.Microseconds()) / float64(len(s.jobs))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := checkServed(s.jobs, rep.Jobs); err != nil {
		return nil, err
	}
	o.cells = map[string]map[string]float64{s.cell: {
		"admitted":        float64(rep.Admitted),
		"degraded":        float64(rep.Degraded),
		"rejected":        float64(rep.Rejected),
		"good_jobs":       float64(rep.GoodJobs),
		"makespan_ps":     rep.MakespanPs,
		"goodput_rps":     rep.GoodputRPS,
		"achieved_rps":    rep.AchievedRPS,
		"shed_rate":       rep.ShedRate,
		"p99_latency_ps":  rep.P99LatencyPs,
		"p99_admitted_ps": rep.P99AdmittedPs,
		"miss_rate":       rep.MissRate,
		"faults":          float64(rep.VIM.Faults),
	}}
	o.sim = map[string]float64{
		"sim_ms":          rep.MakespanPs / psPerMs,
		"sim_goodput_rps": rep.GoodputRPS,
		"sim_p99_ms":      rep.P99LatencyPs / psPerMs,
	}
	if o.digest, err = digest(rep); err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}

	l := o.layer
	meterLayers(l, cfg.Meter)
	l["imu.channels_bound"] = float64(len(rep.IMUCh))
	addIMU(l, rep.IMU.Accesses, rep.IMU.Hits, rep.IMU.Faults, rep.IMU.FaultCycles)
	addVIM(l, rep.VIM.Faults, rep.VIM.Evictions, rep.VIM.Writebacks, rep.VIM.PagesLoaded, rep.VIM.LoadsElided, rep.VIM.BytesIn+rep.VIM.BytesOut)
	servingLayers(l, rep.Jobs, rep.Reconfigs, rep.Admitted, rep.ShedRate, rep.MissRate, rep.TotalReconfigPs, rep.UtilMean)
	l["rcsched.queue_depth_max"] = queueDepthMax(rep.Jobs)
	if err := exportTelemetry(tr, cfg.Meter); err != nil {
		return nil, err
	}
	sp := tr.begin("scenario.record")
	_, err = scenario.RecordServe("serve-overload", "", s.cfg, s.jobs, scenario.Match{})
	tr.end(sp)
	return o, err
}

// fleetAffinity is one fleet.Run of the FLEET stream over four boards with
// affinity dispatch and admission off.
type fleetAffinity struct {
	cell string
	cfg  fleet.Config
	jobs []rcsched.Job
}

func prepareFleet(g *golden, seed int64, tr *tracer) (bench, error) {
	jobs, err := stream(tr, seed, exp.FleetSeed, func() ([]rcsched.Job, error) {
		return exp.FleetStream(fleetBoards, g.KneeRPS)
	})
	if err != nil {
		return nil, err
	}
	return &fleetAffinity{
		cell: fmt.Sprintf("%s/%db", fleet.Affinity, fleetBoards),
		cfg:  exp.FleetConfig(fleet.Affinity, fleetBoards, rcsched.AdmitOff),
		jobs: jobs,
	}, nil
}

func (f *fleetAffinity) op(tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	cfg := f.cfg
	if tr != nil {
		cfg.Meter = telemetry.NewMeter(samplePs)
	}
	var rep *fleet.Report
	err := o.timed(tr, func() error {
		var err error
		sp := tr.begin("fleet.run")
		t0 := now()
		rep, err = fleet.Run(cfg, f.jobs)
		o.simCall = now() - t0
		tr.end(sp)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := checkServed(f.jobs, rep.Jobs); err != nil {
		return nil, err
	}
	o.cells = map[string]map[string]float64{f.cell: {
		"good_jobs":         float64(rep.GoodJobs),
		"misses":            float64(rep.Misses),
		"reconfigs":         float64(rep.Reconfigs),
		"total_reconfig_ps": rep.TotalReconfigPs,
		"makespan_ps":       rep.MakespanPs,
		"goodput_rps":       rep.GoodputRPS,
		"achieved_rps":      rep.AchievedRPS,
		"p99_latency_ps":    rep.P99LatencyPs,
		"miss_rate":         rep.MissRate,
		"util_min":          rep.UtilMin,
		"util_mean":         rep.UtilMean,
		"util_max":          rep.UtilMax,
	}}
	o.sim = map[string]float64{
		"sim_ms":          rep.MakespanPs / psPerMs,
		"sim_goodput_rps": rep.GoodputRPS,
		"sim_p99_ms":      rep.P99LatencyPs / psPerMs,
	}
	if o.digest, err = digest(rep); err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}
	return o, f.decompose(tr, o, rep, cfg.Meter)
}

// decompose fills a traced fleet op's per-layer values. The boards of
// fleet.Run serve concurrently, so their host time cannot be split from
// outside; instead the op routes the stream again and serves each board's
// sub-stream serially, which must reproduce fleet.Run's board reports.
func (f *fleetAffinity) decompose(tr *tracer, o *outcome, rep *fleet.Report, m *telemetry.Meter) error {
	l := o.layer
	sp := tr.begin("fleet.route")
	subs, decisions, err := fleet.Route(f.cfg, f.jobs)
	tr.end(sp)
	if err != nil {
		return err
	}
	var sum, longest time.Duration
	for b, sub := range subs {
		serial := &rcsched.Report{Policy: f.cfg.Board.Policy, Slots: f.cfg.Board.Slots, ConfigBW: f.cfg.Board.ConfigBW}
		if len(sub) > 0 {
			bc := f.cfg.Board
			bc.Meter = telemetry.NewMeter(samplePs)
			bc.TracePid = rcsched.ServeBoardPid + b
			sp := tr.begin("rcsched.serve")
			o.call(tr, "rcsched.serve_alloc_mb", func() { serial, err = rcsched.Serve(bc, sub) })
			d := tr.end(sp)
			if err != nil {
				return fmt.Errorf("board %d: %w", b, err)
			}
			sum += d
			longest = max(longest, d)
		}
		if !reflect.DeepEqual(serial, rep.Boards[b]) {
			return fmt.Errorf("board %d: serial Serve report differs from fleet.Run's", b)
		}
	}
	l["fleet.board_serve_ms_sum"] = ms(sum)
	l["fleet.board_serve_ms_max"] = ms(longest)
	l["fleet.parallel_efficiency"] = ratio(ms(sum), ms(o.host)*float64(runtime.GOMAXPROCS(0)))
	l["rcsched.host_us_per_job"] = float64(sum.Microseconds()) / float64(len(f.jobs))

	resident := 0
	for _, d := range decisions {
		if d.Resident[d.Board] {
			resident++
		}
	}
	l["fleet.resident_route_ratio"] = ratio(float64(resident), float64(len(decisions)))
	l["fleet.util_spread"] = rep.UtilMax - rep.UtilMin

	meterLayers(l, m)
	for _, br := range rep.Boards {
		l["imu.channels_bound"] = max(l["imu.channels_bound"], float64(len(br.IMUCh)))
		l["rcsched.queue_depth_max"] = max(l["rcsched.queue_depth_max"], queueDepthMax(br.Jobs))
		addIMU(l, br.IMU.Accesses, br.IMU.Hits, br.IMU.Faults, br.IMU.FaultCycles)
		addVIM(l, br.VIM.Faults, br.VIM.Evictions, br.VIM.Writebacks, br.VIM.PagesLoaded, br.VIM.LoadsElided, br.VIM.BytesIn+br.VIM.BytesOut)
	}
	servingLayers(l, rep.Jobs, rep.Reconfigs, rep.Admitted, rep.ShedRate, rep.MissRate, rep.TotalReconfigPs, rep.UtilMean)
	return exportTelemetry(tr, m)
}
