package rcsched

// Disposition is the admission-control outcome of one job: what the
// scheduler decided to do with it the instant it arrived.
type Disposition string

const (
	// Admitted jobs are served on a shell slot — the only disposition that
	// exists with admission control off.
	Admitted Disposition = "admitted"
	// Rejected jobs are shed at admission: their deadline was provably
	// unmeetable even under the most optimistic schedule, so serving them
	// would only have delayed jobs that could still make it.
	Rejected Disposition = "rejected"
	// Degraded jobs run on the timed-SW baseline path instead of a shell
	// slot: served — the user still gets an answer — but at software speed,
	// off the contended reconfigurable hardware.
	Degraded Disposition = "degraded"
)

// Admission-control modes for Config.Admit.
const (
	// AdmitOff admits every job unconditionally (the pre-admission-control
	// serving behaviour, bit-identical to it).
	AdmitOff = "off"
	// AdmitReject sheds provably-late jobs at admission.
	AdmitReject = "reject"
	// AdmitDegrade sends provably-late jobs to the timed-SW baseline path.
	AdmitDegrade = "degrade"
)

// bestCaseDonePs is the admission estimator: the earliest instant job j
// could possibly complete given the scheduler's current state. It is built
// to be optimistic — every uncertain term is resolved in the job's favour —
// so an estimate past the deadline proves the deadline unmeetable, while an
// estimate inside it promises nothing.
//
//   - freePs holds, per slot, the earliest instant the slot could accept a
//     new job (now when free; reconfiguration end plus the waiting job's
//     estimate when configuring; launch instant plus the cost-model
//     estimate when executing). It is the caller's scratch: the greedy
//     placement below advances it in place.
//   - Jobs already queued ahead of j are placed greedily onto the
//     earliest-free slot at their bare execution estimate — no
//     reconfiguration charged, the optimistic floor for the backlog they
//     impose.
//   - j itself then takes the earliest remaining slot and pays configPs
//     (zero when its bitstream is resident, staged, or shared with a job
//     ahead that could leave it resident — otherwise the full stream).
func bestCaseDonePs(nowPs float64, freePs []float64, queued []*Job,
	est func(*Job) float64, j *Job, configPs float64) float64 {
	for i := range freePs {
		if freePs[i] < nowPs {
			freePs[i] = nowPs
		}
	}
	earliest := func() int {
		b := 0
		for i := 1; i < len(freePs); i++ {
			if freePs[i] < freePs[b] {
				b = i
			}
		}
		return b
	}
	for _, q := range queued {
		freePs[earliest()] += est(q)
	}
	s := earliest()
	return freePs[s] + configPs + est(j)
}
