package traffic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rcsched"
)

func mustStream(t *testing.T, n int, seed int64, spec Spec) []rcsched.Job {
	t.Helper()
	jobs, err := Stream(n, seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestStreamDeterminism pins the open-loop generator's replay contract for
// every arrival process: the same (n, seed, spec) triple yields the same
// stream bit for bit, and a different seed diverges.
func TestStreamDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"uniform": {Process: Uniform, RPS: 800},
		"poisson": {Process: Poisson, RPS: 800},
		"bursty":  {Process: Bursty, RPS: 800},
		"diurnal": {Process: Diurnal, Phases: []Phase{
			{RPS: 200, DurationPs: 20e9}, {RPS: 2000, DurationPs: 10e9},
		}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			a := mustStream(t, 32, 7, spec)
			b := mustStream(t, 32, 7, spec)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("identical parameters produced different streams")
			}
			c := mustStream(t, 32, 8, spec)
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical streams")
			}
			last := 0.0
			for _, j := range a {
				if j.ArrivalPs <= last {
					t.Fatalf("job %d arrival %.3f ms not past its predecessor's %.3f ms",
						j.ID, j.ArrivalPs/1e9, last/1e9)
				}
				last = j.ArrivalPs
				if j.Size%8 != 0 {
					t.Fatalf("job %d size %d is not a whole IDEA block count", j.ID, j.Size)
				}
				if j.DeadlinePs <= j.ArrivalPs {
					t.Fatalf("job %d deadline not past its arrival", j.ID)
				}
			}
		})
	}
}

// TestStreamMeanRate checks each averaged process against its target: over
// a long stream the empirical rate must land within a loose statistical
// tolerance of RPS (diurnal against its schedule's own time average).
func TestStreamMeanRate(t *testing.T) {
	const n, rps = 4096, 1000.0
	for name, spec := range map[string]Spec{
		"uniform": {Process: Uniform, RPS: rps},
		"poisson": {Process: Poisson, RPS: rps},
		"bursty":  {Process: Bursty, RPS: rps},
	} {
		jobs := mustStream(t, n, 99, spec)
		got := float64(n) / (jobs[n-1].ArrivalPs / 1e12)
		if got < 0.85*rps || got > 1.15*rps {
			t.Errorf("%s: empirical rate %.1f jobs/s, want ~%.0f", name, got, rps)
		}
	}
	// Diurnal: equal halves at 200 and 1800 jobs/s average to 1000.
	jobs := mustStream(t, n, 99, Spec{Process: Diurnal, Phases: []Phase{
		{RPS: 200, DurationPs: 50e9}, {RPS: 1800, DurationPs: 50e9},
	}})
	got := float64(n) / (jobs[n-1].ArrivalPs / 1e12)
	if got < 850 || got > 1150 {
		t.Errorf("diurnal: empirical rate %.1f jobs/s, want ~1000", got)
	}
}

// TestBurstyConcentratesArrivals pins the point of the bursty process: at
// the default duty cycle the quiet phase is exactly silent, so every
// arrival must land inside a burst window.
func TestBurstyConcentratesArrivals(t *testing.T) {
	spec := Spec{Process: Bursty, RPS: 500, PeriodPs: 40e9}
	jobs := mustStream(t, 256, 3, spec)
	for _, j := range jobs {
		if phase := math.Mod(j.ArrivalPs, 40e9); phase > DefaultDutyCycle*40e9+1e-3 {
			t.Fatalf("job %d arrives %.3f ms into the period — inside the silent phase", j.ID, phase/1e9)
		}
	}
}

// TestStreamRejectsBadSpecs sweeps the validation surface: every degenerate
// spec must be an error, not a hung generator or an absurd stream.
func TestStreamRejectsBadSpecs(t *testing.T) {
	for name, spec := range map[string]Spec{
		"unknown process":   {Process: "adversarial", RPS: 100},
		"zero rate":         {Process: Poisson},
		"negative rate":     {Process: Poisson, RPS: -5},
		"uniform zero rate": {Process: Uniform},
		"duty cycle 1":      {Process: Bursty, RPS: 100, DutyCycle: 1},
		"factor below 1":    {Process: Bursty, RPS: 100, BurstFactor: 0.5},
		"factor too high":   {Process: Bursty, RPS: 100, BurstFactor: 10, DutyCycle: 0.5},
		"negative period":   {Process: Bursty, RPS: 100, PeriodPs: -1},
		"diurnal no phases": {Process: Diurnal},
		"diurnal all idle":  {Process: Diurnal, Phases: []Phase{{RPS: 0, DurationPs: 1e9}}},
		"diurnal bad span":  {Process: Diurnal, Phases: []Phase{{RPS: 100, DurationPs: 0}}},
	} {
		if _, err := Stream(8, 1, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Stream(0, 1, Spec{RPS: 100}); err == nil {
		t.Error("zero-job stream accepted")
	}
	if jobs, err := Stream(4, 1, Spec{RPS: 100}); err != nil || len(jobs) != 4 {
		t.Errorf("empty process name should default to poisson: %v, %d jobs", err, len(jobs))
	}
}

// TestOverloadedWindow exercises the sliding-window failure-rate criterion
// on synthetic job lists: a sustained failure run trips it, the same
// failures diluted across the stream do not.
func TestOverloadedWindow(t *testing.T) {
	mk := func(n int, fail func(i int) bool) []rcsched.JobReport {
		jobs := make([]rcsched.JobReport, n)
		for i := range jobs {
			jobs[i] = rcsched.JobReport{ID: i, Disposition: rcsched.Admitted, Missed: fail(i)}
		}
		return jobs
	}
	if Overloaded(mk(48, func(i int) bool { return false }), 12, 0.3) {
		t.Error("clean stream flagged overloaded")
	}
	// 5 of any 12 consecutive jobs > 0.3: a solid run of 5 misses trips it.
	if !Overloaded(mk(48, func(i int) bool { return i >= 20 && i < 25 }), 12, 0.3) {
		t.Error("sustained failure run not flagged")
	}
	// The same 5 failures spread evenly (every 10th job) never exceed 2 per
	// window of 12 — not overloaded.
	if Overloaded(mk(48, func(i int) bool { return i%10 == 0 }), 12, 0.3) {
		t.Error("diluted failures flagged overloaded")
	}
	// Rejected jobs count as failures too.
	rej := mk(24, func(i int) bool { return false })
	for i := 6; i < 12; i++ {
		rej[i].Disposition = rcsched.Rejected
	}
	if !Overloaded(rej, 12, 0.3) {
		t.Error("rejection run not flagged")
	}
	// A stream shorter than the window can still trip the detector once
	// window-1 jobs are in (the guard is i >= window-1).
	if Overloaded(mk(6, func(i int) bool { return true }), 12, 0.3) {
		t.Error("stream shorter than the window flagged")
	}
}

// TestFindKneeLocatesSaturation runs the ramp sweep on the default serving
// configuration and checks the detected knee against the board's known
// capacity (~1k jobs/s at two slots): the sweep must end overloaded, with
// a knee strictly inside the ramp and below the saturation rate.
func TestFindKneeLocatesSaturation(t *testing.T) {
	ramp, err := FindKnee(
		ServeRunner(rcsched.Config{Policy: "slack", Slots: 2}),
		Spec{Process: Poisson},
		RampSpec{StartRPS: 400, StepRPS: 400, Steps: 10, Jobs: 36, Seed: 42},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ramp.SaturationRPS == 0 {
		t.Fatal("ramp never saturated a two-slot board at up to 4000 jobs/s")
	}
	if ramp.KneeRPS == 0 || ramp.KneeRPS >= ramp.SaturationRPS {
		t.Fatalf("knee %.0f jobs/s not strictly inside the ramp (saturation %.0f)",
			ramp.KneeRPS, ramp.SaturationRPS)
	}
	last := ramp.Points[len(ramp.Points)-1]
	if !last.Overloaded {
		t.Fatal("sweep stopped on a point not flagged overloaded")
	}
	for _, p := range ramp.Points[:len(ramp.Points)-1] {
		if p.Overloaded {
			t.Fatalf("sweep continued past overloaded point at %.0f jobs/s", p.RPS)
		}
	}
}

// TestFindKneeRejectsBadRamps sweeps the ramp validation surface.
func TestFindKneeRejectsBadRamps(t *testing.T) {
	run := ServeRunner(rcsched.Config{Slots: 2})
	for name, ramp := range map[string]RampSpec{
		"zero start":    {StepRPS: 100, Steps: 2, Jobs: 8},
		"zero step":     {StartRPS: 100, Steps: 2, Jobs: 8},
		"zero steps":    {StartRPS: 100, StepRPS: 100, Jobs: 8},
		"zero jobs":     {StartRPS: 100, StepRPS: 100, Steps: 2},
		"negative step": {StartRPS: 100, StepRPS: -1, Steps: 2, Jobs: 8},
	} {
		if _, err := FindKnee(run, Spec{}, ramp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FindKnee(run, Spec{Process: Diurnal, Phases: []Phase{{RPS: 100, DurationPs: 1e9}}},
		RampSpec{StartRPS: 100, StepRPS: 100, Steps: 2, Jobs: 8}); err == nil {
		t.Error("diurnal ramp accepted — there is no single rate to sweep")
	}
}
