// Package traffic generates open-loop job streams for the serving layer:
// arrival processes that keep offering load at a target rate whether or not
// the board keeps up — the regime in which queues grow, deadlines slip and
// admission control earns its keep. Every generator is deterministic in
// (n, seed, spec): the same triple replays the same stream bit for bit,
// so stress cells pin under both simulation schedulers like every other
// experiment in the repository.
//
// The package also owns the overload detector and the RPS-ramp sweep that
// locates a serving configuration's saturation knee — the offered rate past
// which the failure rate over a sliding window of consecutive jobs crosses
// the overload threshold (the invitro-style CheckOverload criterion).
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/rcsched"
)

// Arrival-process names for Spec.Process.
const (
	// Uniform draws arrival gaps uniformly in (0, 2/RPS) — the closed-form
	// jitter the serving layer's own Trace uses, averaged to the target rate.
	Uniform = "uniform"
	// Poisson draws exponential gaps at rate RPS: the memoryless open-loop
	// process serving benchmarks model user populations with.
	Poisson = "poisson"
	// Bursty alternates Poisson phases: bursts at BurstFactor x RPS for
	// DutyCycle of each PeriodPs, quiet at whatever lower rate keeps the
	// long-run average at RPS.
	Bursty = "bursty"
	// Diurnal cycles through an explicit Phases schedule of (RPS, duration)
	// pairs — a whole day's load shape compressed onto the serving clock.
	Diurnal = "diurnal"
)

// Defaults for the optional Spec knobs.
const (
	// DefaultBurstFactor is the burst-phase rate multiplier.
	DefaultBurstFactor = 4.0
	// DefaultDutyCycle is the fraction of each period spent bursting. At the
	// default factor the off phase is exactly silent (4 x 0.25 = 1), so the
	// default bursty process is pure on/off.
	DefaultDutyCycle = 0.25
)

// Phase is one segment of a piecewise-constant arrival schedule.
type Phase struct {
	// RPS is the phase's Poisson arrival rate in jobs per second (0 = silent).
	RPS float64
	// DurationPs is the phase's length on the serving clock.
	DurationPs float64
}

// Spec parameterises one arrival process.
type Spec struct {
	// Process is Uniform, Poisson (default), Bursty or Diurnal.
	Process string
	// RPS is the target offered rate in jobs per second. It must be positive
	// for every process except Diurnal, whose rate lives in Phases.
	RPS float64
	// BurstFactor multiplies RPS during Bursty's burst phase (default
	// DefaultBurstFactor; must be >= 1 and <= 1/DutyCycle so the quiet
	// phase's balancing rate stays non-negative).
	BurstFactor float64
	// DutyCycle is the fraction of each Bursty period spent bursting
	// (default DefaultDutyCycle, in (0, 1)).
	DutyCycle float64
	// PeriodPs is Bursty's on/off cycle length (default: the span of 20
	// jobs at RPS, so a stream of a few dozen jobs sees several bursts).
	PeriodPs float64
	// Phases is Diurnal's repeating schedule; at least one phase must have
	// a positive rate, and every duration must be positive.
	Phases []Phase
}

// schedule normalises the spec into a repeating piecewise-constant rate
// schedule, validating as it goes.
func (s Spec) schedule() ([]Phase, error) {
	switch s.Process {
	case Bursty:
		factor := s.BurstFactor
		if factor == 0 {
			factor = DefaultBurstFactor
		}
		duty := s.DutyCycle
		if duty == 0 {
			duty = DefaultDutyCycle
		}
		if duty <= 0 || duty >= 1 {
			return nil, fmt.Errorf("traffic: bursty duty cycle %g outside (0, 1)", duty)
		}
		if factor < 1 || factor*duty > 1 {
			return nil, fmt.Errorf("traffic: burst factor %g outside [1, 1/duty=%g]", factor, 1/duty)
		}
		period := s.PeriodPs
		if period == 0 {
			period = 20 / s.RPS * 1e12
		}
		if period <= 0 {
			return nil, fmt.Errorf("traffic: bursty period %g ps not positive", period)
		}
		// The quiet phase's rate balances the burst so the long-run average
		// stays at RPS: duty*factor*RPS + (1-duty)*quiet = RPS.
		quiet := s.RPS * (1 - duty*factor) / (1 - duty)
		return []Phase{
			{RPS: factor * s.RPS, DurationPs: duty * period},
			{RPS: quiet, DurationPs: (1 - duty) * period},
		}, nil
	case Diurnal:
		if len(s.Phases) == 0 {
			return nil, fmt.Errorf("traffic: diurnal process needs a phase schedule")
		}
		live := false
		for i, ph := range s.Phases {
			if ph.DurationPs <= 0 {
				return nil, fmt.Errorf("traffic: diurnal phase %d duration %g ps not positive", i, ph.DurationPs)
			}
			if ph.RPS < 0 {
				return nil, fmt.Errorf("traffic: diurnal phase %d rate %g negative", i, ph.RPS)
			}
			if ph.RPS > 0 {
				live = true
			}
		}
		if !live {
			return nil, fmt.Errorf("traffic: diurnal schedule has no phase with a positive rate")
		}
		return append([]Phase(nil), s.Phases...), nil
	}
	return nil, nil // single-rate process; no schedule
}

// Validate checks the spec before any stream is generated: a known
// process, a positive rate for the single-rate processes, and a well-formed
// burst or phase schedule.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve validates the spec and resolves its process name.
func (s Spec) resolve() (string, error) {
	proc := s.Process
	if proc == "" {
		proc = Poisson
	}
	switch proc {
	case Uniform, Poisson, Bursty, Diurnal:
	default:
		return "", &rcsched.ConfigError{Field: "Process", Msg: fmt.Sprintf(
			"traffic: unknown arrival process %q (want uniform, poisson, bursty or diurnal)", s.Process)}
	}
	if proc != Diurnal && s.RPS <= 0 {
		return "", &rcsched.ConfigError{Field: "RPS", Msg: fmt.Sprintf(
			"traffic: %s process needs a positive rate, got %g jobs/s", proc, s.RPS)}
	}
	if _, err := s.schedule(); err != nil {
		return "", err
	}
	return proc, nil
}

// arrivals returns a generator of successive arrival instants (in
// picoseconds) for the spec, driven by rng. Piecewise-constant processes
// consume one unit-rate exponential sample across phase boundaries — the
// exact inversion for an inhomogeneous Poisson process, not a per-phase
// approximation.
func (s Spec) arrivals(proc string, rng *rand.Rand) func() float64 {
	switch proc {
	case Uniform:
		t := 0.0
		return func() float64 {
			t += rng.Float64() * 2 / s.RPS * 1e12
			return t
		}
	case Poisson:
		t := 0.0
		return func() float64 {
			t += rng.ExpFloat64() / s.RPS * 1e12
			return t
		}
	}
	// Bursty and Diurnal: walk the repeating schedule.
	phases, _ := s.schedule()
	t := 0.0
	pi, left := 0, phases[0].DurationPs
	return func() float64 {
		e := rng.ExpFloat64() // unit-rate sample, consumed across phases
		for {
			ratePerPs := phases[pi].RPS / 1e12
			if ratePerPs > 0 {
				if need := e / ratePerPs; need <= left {
					t += need
					left -= need
					return t
				}
				e -= left * ratePerPs
			}
			t += left
			pi = (pi + 1) % len(phases)
			left = phases[pi].DurationPs
		}
	}
}

// Stream generates a deterministic n-job open-loop stream under spec:
// arrivals from the requested process, applications and input sizes from
// the serving layer's bundled mix (IDEA / ADPCM / vecadd over 1–4 KB),
// per-job data seeds, and per-app deadlines at the default budget factor
// (re-derive with rcsched.SetBudgets). The same (n, seed, spec) triple
// always yields the same stream.
func Stream(n int, seed int64, spec Spec) ([]rcsched.Job, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: stream needs a positive job count, got %d", n)
	}
	proc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	next := spec.arrivals(proc, rng)
	apps := []string{"idea", "adpcm", "vecadd"}
	sizes := []int{1024, 2048, 4096}
	jobs := make([]rcsched.Job, n)
	for i := range jobs {
		jobs[i] = rcsched.Job{
			ID:        i,
			ArrivalPs: next(),
			App:       apps[rng.Intn(len(apps))],
			Size:      sizes[rng.Intn(len(sizes))] &^ 7,
			Seed:      rng.Int63(),
		}
	}
	rcsched.SetBudgets(jobs, rcsched.DefaultBudgetFactor)
	return jobs, nil
}
