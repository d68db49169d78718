package traffic

import (
	"fmt"

	"repro/internal/rcsched"
)

// Overload-detector defaults: a job stream is overloaded when more than
// DefaultThreshold of any DefaultWindow consecutive jobs (in arrival order)
// fail — miss their deadline or are shed at admission. The sliding window
// makes the detector sensitive to sustained failure runs rather than a
// stream-wide average that a long healthy warm-up would dilute.
const (
	DefaultWindow    = 12
	DefaultThreshold = 0.3
)

// failed reports whether one served job counts against the overload
// detector: it was shed outright, or it completed past its deadline.
func failed(j *rcsched.JobReport) bool {
	return j.Disposition == rcsched.Rejected || j.Missed
}

// Overloaded applies the sliding-window failure-rate criterion to a job
// list in arrival order: true when any window of `window` consecutive jobs
// has a failure fraction strictly above threshold. Zero window and
// threshold select the defaults. A fleet report's merged Jobs are already
// in arrival order; sliding the window over per-board concatenations
// instead would miss failure runs that span boards and manufacture runs
// across the concatenation seams.
func Overloaded(jobs []rcsched.JobReport, window int, threshold float64) bool {
	if window <= 0 {
		window = DefaultWindow
	}
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	fails := 0
	for i := range jobs {
		if failed(&jobs[i]) {
			fails++
		}
		if i >= window && failed(&jobs[i-window]) {
			fails--
		}
		if i >= window-1 && float64(fails)/float64(window) > threshold {
			return true
		}
	}
	return false
}

// RampSpec parameterises one saturation sweep: a linear RPS ramp served
// step by step until the overload detector fires.
type RampSpec struct {
	// StartRPS and StepRPS define the linear ramp (both must be positive).
	StartRPS float64
	StepRPS  float64
	// Steps bounds the ramp length (must be positive).
	Steps int
	// Jobs is the stream length served at each step (must be positive).
	Jobs int
	// Seed drives every step's stream (the step index perturbs it, so
	// consecutive steps are independent draws of the same process).
	Seed int64
	// Window and Threshold parameterise the overload detector
	// (0 = the package defaults).
	Window    int
	Threshold float64
}

// RampPoint is one measured step of a saturation sweep: the target rate,
// the Summary of the step's served jobs (its OfferedRPS is the measured
// rate of the generated stream) and the overload verdict.
type RampPoint struct {
	RPS float64
	rcsched.Summary
	Overloaded bool
}

// Ramp is the result of a saturation sweep.
type Ramp struct {
	Points []RampPoint
	// KneeRPS is the highest offered rate the configuration served without
	// tripping the overload detector (0 when even the first step overloads).
	KneeRPS float64
	// SaturationRPS is the first offered rate that tripped the detector
	// (0 when the ramp ended with the configuration still keeping up).
	SaturationRPS float64
}

// Runner serves one ramp step's stream and returns its job reports in
// arrival order, which FindKnee summarises and slides the overload
// detector over. ServeRunner runs one board; fleet.Config.Runner runs a
// dispatcher over many.
type Runner func(jobs []rcsched.Job) ([]rcsched.JobReport, error)

// ServeRunner is the single-board Runner: each step is one rcsched.Serve
// under cfg.
func ServeRunner(cfg rcsched.Config) Runner {
	return func(jobs []rcsched.Job) ([]rcsched.JobReport, error) {
		rep, err := rcsched.Serve(cfg, jobs)
		if err != nil {
			return nil, err
		}
		return rep.Jobs, nil
	}
}

// FindKnee sweeps offered load up the ramp, serving one stream of spec's
// arrival process per step (the step's rate substituted in) through run,
// and stops at the first step the overload detector flags. The returned
// ramp holds every measured point plus the detected knee. Diurnal specs
// are rejected: their rate lives in the phase schedule, so a ramp has
// nothing to sweep.
func FindKnee(run Runner, spec Spec, ramp RampSpec) (*Ramp, error) {
	if spec.Process == Diurnal {
		return nil, fmt.Errorf("traffic: a diurnal schedule has no single rate to ramp")
	}
	if ramp.StartRPS <= 0 || ramp.StepRPS <= 0 {
		return nil, fmt.Errorf("traffic: ramp needs positive start and step rates, got %g + k x %g",
			ramp.StartRPS, ramp.StepRPS)
	}
	if ramp.Steps <= 0 || ramp.Jobs <= 0 {
		return nil, fmt.Errorf("traffic: ramp needs positive step and job counts, got %d steps x %d jobs",
			ramp.Steps, ramp.Jobs)
	}
	out := &Ramp{}
	for step := 0; step < ramp.Steps; step++ {
		s := spec
		s.RPS = ramp.StartRPS + float64(step)*ramp.StepRPS
		jobs, err := Stream(ramp.Jobs, ramp.Seed+int64(step), s)
		if err != nil {
			return nil, err
		}
		served, err := run(jobs)
		if err != nil {
			return nil, fmt.Errorf("traffic: ramp step %d (%g jobs/s): %w", step, s.RPS, err)
		}
		p := RampPoint{
			RPS:        s.RPS,
			Summary:    rcsched.Summarize(served),
			Overloaded: Overloaded(served, ramp.Window, ramp.Threshold),
		}
		out.Points = append(out.Points, p)
		if p.Overloaded {
			out.SaturationRPS = s.RPS
			break
		}
		out.KneeRPS = s.RPS
	}
	return out, nil
}
