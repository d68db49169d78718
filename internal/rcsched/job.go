package rcsched

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro"
	"repro/internal/bitstream"
	"repro/internal/kernel"
	"repro/internal/ref"
	"repro/internal/vim"
)

// Job is one unit of the multi-user stream: a user asking for application
// App over Size bytes of fresh input, arriving at ArrivalPs on the serving
// clock. Seed drives the job's input data, so a trace replays bit-for-bit.
// DeadlinePs is the job's service-level objective — the instant by which it
// should complete (arrival plus a per-app budget; 0 means no deadline);
// the deadline-aware policies schedule against it and Report measures
// lateness and miss-rate from it.
type Job struct {
	ID         int
	App        string // "idea" | "adpcm" | "vecadd"
	Size       int    // input bytes (whole IDEA blocks enforced by Trace)
	ArrivalPs  float64
	DeadlinePs float64
	Seed       int64

	coreName string // bitstream identity, resolved at admission
}

// Trace generates a deterministic n-job stream: arrival gaps are uniform in
// (0, 2·meanGapPs), applications and input sizes are drawn from the bundled
// mix (IDEA / ADPCM / vecadd over 1–4 KB), every job carries its own data
// seed, and deadlines are assigned per app at DefaultBudgetFactor
// (re-derive with SetBudgets). The same (n, seed, meanGapPs) triple always
// yields the same stream. n must be positive and meanGapPs non-negative.
func Trace(n int, seed int64, meanGapPs float64) ([]Job, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rcsched: trace needs a positive job count, got %d", n)
	}
	if meanGapPs < 0 {
		return nil, fmt.Errorf("rcsched: negative mean arrival gap %g ps", meanGapPs)
	}
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"idea", "adpcm", "vecadd"}
	sizes := []int{1024, 2048, 4096}
	jobs := make([]Job, n)
	arrival := 0.0
	for i := range jobs {
		arrival += rng.Float64() * 2 * meanGapPs
		jobs[i] = Job{
			ID:        i,
			App:       apps[rng.Intn(len(apps))],
			Size:      sizes[rng.Intn(len(sizes))] &^ 7,
			ArrivalPs: arrival,
			Seed:      rng.Int63(),
		}
	}
	SetBudgets(jobs, DefaultBudgetFactor)
	return jobs, nil
}

// ValidateJobs rejects a stream no board can serve: every job needs a
// positive input size and a finite, non-negative arrival instant. Serve
// and the fleet router both call it before any simulation — or any board
// goroutine — starts, so a bad job becomes an error instead of a panic
// deep inside the serving loop.
func ValidateJobs(jobs []Job) error {
	for i := range jobs {
		j := &jobs[i]
		if j.Size <= 0 {
			return fmt.Errorf("rcsched: job %d: input size must be positive, got %d", j.ID, j.Size)
		}
		if math.IsNaN(j.ArrivalPs) || math.IsInf(j.ArrivalPs, 0) || j.ArrivalPs < 0 {
			return fmt.Errorf("rcsched: job %d: arrival must be finite and non-negative, got %g ps", j.ID, j.ArrivalPs)
		}
	}
	return nil
}

// objSpec is one FPGA_MAP_OBJECT call a job needs.
type objSpec struct {
	id         uint8
	base, size uint32
	dir        vim.Direction
}

// prepared is a job's materialised process image: user buffers holding the
// input, the object mappings and launch parameters, and where the output
// lands. The expected output is not kept: finishJob regenerates it from the
// job's seed.
type prepared struct {
	objs    []objSpec
	params  []uint32
	outAddr uint32
	outLen  int
}

// appSpec binds an application name to its bitstream, the number of input
// bytes a job draws from its seed, the process image built from those
// inputs, and the golden algorithm mapping them to the expected output.
type appSpec struct {
	coreName string
	img      []byte
	inBytes  func(size int) int
	prepare  func(k *kernel.Kernel, size int, in []byte) (*prepared, error)
	golden   func(in, want []byte)
}

// appTables caches appTable per board name: the images and parsed core
// names are immutable, so every Serve on a board shares one table.
var appTables sync.Map // board name -> map[string]*appSpec

// appTable resolves the bundled applications for a board.
func appTable(board string) (map[string]*appSpec, error) {
	if t, ok := appTables.Load(board); ok {
		return t.(map[string]*appSpec), nil
	}
	table := map[string]*appSpec{
		"idea":   {img: repro.IDEABitstream(board), inBytes: ideaInBytes, prepare: prepIDEA, golden: goldenIDEA},
		"adpcm":  {img: repro.ADPCMBitstream(board), inBytes: sizeInBytes, prepare: prepADPCM, golden: goldenADPCM},
		"vecadd": {img: repro.VecAddBitstream(board), inBytes: vecaddInBytes, prepare: prepVecAdd, golden: goldenVecAdd},
	}
	for name, a := range table {
		h, err := bitstream.Parse(a.img)
		if err != nil {
			return nil, fmt.Errorf("rcsched: %s bitstream: %w", name, err)
		}
		a.coreName = h.Core
	}
	t, _ := appTables.LoadOrStore(board, table)
	return t.(map[string]*appSpec), nil
}

// workspace is one Serve loop's job-data scratch: a single generator,
// reseeded per job (Rand.Seed restarts exactly the stream
// rand.New(rand.NewSource(seed)) would draw), plus reused input and
// golden-output buffers. A job's inputs are drawn once to build its
// process image and again at completion to regenerate its expected output,
// so no per-job buffer outlives its use.
type workspace struct {
	rng      *rand.Rand
	in, want []byte
}

func newWorkspace() *workspace {
	return &workspace{rng: rand.New(rand.NewSource(0))}
}

// inputs draws job j's input bytes for app a from the job's seed.
func (w *workspace) inputs(a *appSpec, j *Job) []byte {
	w.rng.Seed(j.Seed)
	w.in = resize(w.in, a.inBytes(j.Size))
	w.rng.Read(w.in)
	return w.in
}

// golden regenerates job j's inputs and returns its n-byte expected output.
func (w *workspace) golden(a *appSpec, j *Job, n int) []byte {
	in := w.inputs(a, j)
	w.want = resize(w.want, n)
	a.golden(in, w.want)
	return w.want
}

// resize returns b with length n, reallocating only when it must grow.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// IDEA draws a 16-byte key followed by the plaintext.
func ideaInBytes(size int) int { return len(repro.IDEAKey{}) + size }

func sizeInBytes(size int) int { return size }

// vecadd draws operand A followed by operand B.
func vecaddInBytes(size int) int { return 2 * size }

func prepIDEA(k *kernel.Kernel, size int, in []byte) (*prepared, error) {
	var key repro.IDEAKey
	plain := in[copy(key[:], in):]
	inAddr, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	out, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	if err := k.WriteUser(inAddr, plain); err != nil {
		return nil, err
	}
	return &prepared{
		objs: []objSpec{
			{repro.IDEAObjIn, inAddr, uint32(size), vim.In},
			{repro.IDEAObjOut, out, uint32(size), vim.Out},
		},
		params:  repro.IDEAEncryptParams(key, size/8),
		outAddr: out,
		outLen:  size,
	}, nil
}

// goldenIDEA encrypts every whole plaintext block; a ragged tail the core
// never touches stays zero.
func goldenIDEA(in, want []byte) {
	var key repro.IDEAKey
	plain := in[copy(key[:], in):]
	ek := ref.ExpandIDEAKey(key)
	whole := len(plain) &^ (ref.IDEABlockBytes - 1)
	ref.IDEAApplyTo(&ek, want, plain[:whole])
	clear(want[whole:])
}

func prepADPCM(k *kernel.Kernel, size int, packed []byte) (*prepared, error) {
	in, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	out, err := k.Alloc(size * 4)
	if err != nil {
		return nil, err
	}
	if err := k.WriteUser(in, packed); err != nil {
		return nil, err
	}
	return &prepared{
		objs: []objSpec{
			{repro.ADPCMObjIn, in, uint32(size), vim.In},
			{repro.ADPCMObjOut, out, uint32(size * 4), vim.Out},
		},
		params:  []uint32{uint32(size)},
		outAddr: out,
		outLen:  size * 4,
	}, nil
}

// goldenADPCM decodes two little-endian 16-bit samples per packed byte,
// high nibble first.
func goldenADPCM(packed, want []byte) {
	var st ref.ADPCMState
	for i, b := range packed {
		binary.LittleEndian.PutUint16(want[4*i:], uint16(ref.ADPCMDecodeNibble(&st, b>>4)))
		binary.LittleEndian.PutUint16(want[4*i+2:], uint16(ref.ADPCMDecodeNibble(&st, b&0xf)))
	}
}

func prepVecAdd(k *kernel.Kernel, size int, in []byte) (*prepared, error) {
	a, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	b, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	c, err := k.Alloc(size)
	if err != nil {
		return nil, err
	}
	if err := k.WriteUser(a, in[:size]); err != nil {
		return nil, err
	}
	if err := k.WriteUser(b, in[size:]); err != nil {
		return nil, err
	}
	return &prepared{
		objs: []objSpec{
			{repro.VecAddObjA, a, uint32(size), vim.In},
			{repro.VecAddObjB, b, uint32(size), vim.In},
			{repro.VecAddObjC, c, uint32(size), vim.Out},
		},
		params:  []uint32{uint32(size / 4)},
		outAddr: c,
		outLen:  size,
	}, nil
}

// goldenVecAdd sums the operands' whole 32-bit words; a ragged tail the
// core never touches stays zero.
func goldenVecAdd(in, want []byte) {
	size := len(want)
	av, bv := in[:size], in[size:]
	whole := size &^ 3
	for i := 0; i < whole; i += 4 {
		s := binary.LittleEndian.Uint32(av[i:]) + binary.LittleEndian.Uint32(bv[i:])
		binary.LittleEndian.PutUint32(want[i:], s)
	}
	clear(want[whole:])
}
