package rcsched

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/kernel"
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

// prepared is a job's materialised process image: the user address of
// each of its application's objects, in table order, its launch
// parameters, the key bytes of its drawn input (which live in no object)
// and a CRC-32C of the whole drawn input. The expected output is not kept:
// finishJob recomputes it from the input objects read back from user
// memory, checked against crc.
type prepared struct {
	base   [apps.MaxObjects]uint32
	params []uint32
	key    [apps.MaxKey]byte
	crc    uint32
}

// castagnoli is the CRC-32C table prepared.crc is taken with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// workspace is one Serve loop's job-data scratch: a single generator,
// reseeded per job (Rand.Seed restarts exactly the stream
// rand.New(rand.NewSource(seed)) would draw), plus reused input and
// golden-output buffers. A job's inputs are drawn once, to build its
// process image; at completion they are read back from user memory, so no
// per-job buffer outlives its use.
type workspace struct {
	rng      *rand.Rand
	in, want []byte
}

func newWorkspace() *workspace {
	return &workspace{rng: rand.New(rand.NewSource(0))}
}

// place draws job j's input bytes for app a from the job's seed and
// builds its process image in k's user memory (untimed, like the
// single-run experiments: the data already exists in user space),
// recording it in p.
func (w *workspace) place(k *kernel.Kernel, a *apps.Image, j *Job, p *prepared) error {
	w.rng.Seed(j.Seed)
	w.in = resize(w.in, a.InBytes(j.Size))
	in := w.in
	w.rng.Read(in)
	if err := a.Place(k, j.Size, in, p.base[:]); err != nil {
		return err
	}
	p.params = a.Params(in, a.Items(j.Size))
	copy(p.key[:], in[:a.Key])
	p.crc = crc32.Checksum(in, castagnoli)
	return nil
}

// golden reads job j's input objects back from k's user memory (untimed,
// like place) behind the key bytes kept in p, checks the reassembled input
// against the CRC taken at placement, and returns the expected output.
func (w *workspace) golden(k *kernel.Kernel, a *apps.Image, j *Job, p *prepared) ([]byte, error) {
	w.in = resize(w.in, a.InBytes(j.Size))
	copy(w.in, p.key[:a.Key])
	st := k.CPU.SDRAM.Store()
	for i := range a.Objects {
		if obj := a.Input(w.in, i, j.Size); obj != nil {
			if err := st.ReadInto(p.base[i], obj); err != nil {
				return nil, err
			}
		}
	}
	if crc32.Checksum(w.in, castagnoli) != p.crc {
		return nil, fmt.Errorf("rcsched: job %d (%s, %d B) input objects changed in user memory since placement",
			j.ID, j.App, j.Size)
	}
	w.want = resize(w.want, a.Bytes(a.Out(), j.Size))
	a.Golden(w.in, w.want)
	return w.want, nil
}

// resize returns b with length n, reallocating only when it must grow.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
