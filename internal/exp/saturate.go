package exp

import (
	"fmt"

	"repro/internal/rcsched"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Saturation-experiment parameters: open-loop Poisson streams on the
// two-slot EPXA4 shell, swept up a linear RPS ramp until the overload
// detector fires. The stream is long enough that the sliding window sees
// sustained failure runs, short enough that a dozen ramp steps stay cheap.
const (
	SaturateJobs     = 40
	SaturateSeed     = int64(1717)
	SaturateStartRPS = 400.0
	SaturateStepRPS  = 400.0
	SaturateSteps    = 10
)

// SaturateConfig is the experiment's canonical serving configuration under
// the given policy and admission mode.
func SaturateConfig(policy, admit string) rcsched.Config {
	return rcsched.Config{Policy: policy, Slots: 2, Admit: admit}
}

// SaturateRamp sweeps the canonical ramp under cfg and returns the measured
// points plus the detected saturation knee.
func SaturateRamp(cfg rcsched.Config) (*traffic.Ramp, error) {
	return traffic.FindKnee(traffic.ServeRunner(cfg), traffic.Spec{Process: traffic.Poisson}, traffic.RampSpec{
		StartRPS: SaturateStartRPS,
		StepRPS:  SaturateStepRPS,
		Steps:    SaturateSteps,
		Jobs:     SaturateJobs,
		Seed:     SaturateSeed,
	})
}

// SaturateStream returns the experiment's canonical open-loop Poisson
// stream at the given offered rate.
func SaturateStream(rps float64) ([]rcsched.Job, error) {
	return traffic.Stream(SaturateJobs, SaturateSeed, traffic.Spec{Process: traffic.Poisson, RPS: rps})
}

// RunSaturate regenerates the saturation experiment: an RPS ramp under the
// slack scheduler locates the configuration's knee, then the stream is
// re-offered at the knee and at twice the knee under each deadline policy
// with admission control off, rejecting, and degrading. The headline
// property is that past saturation, shedding provably-late jobs yields
// strictly more goodput — deadline-met completions per second — and a
// strictly lower admitted-job p99 than serving everything.
func RunSaturate() (*Result, error) {
	series := map[string]float64{}

	ramp, err := SaturateRamp(SaturateConfig("slack", rcsched.AdmitOff))
	if err != nil {
		return nil, err
	}
	rampTb := &stats.Table{
		Title: fmt.Sprintf("open-loop Poisson ramp, %d jobs per step on EPXA4 (slack, 2 slots, admission off)",
			SaturateJobs),
		Headers: []string{"target RPS", "offered RPS", "achieved RPS", "goodput RPS",
			"miss rate", "p99 ms", "overloaded"},
	}
	for _, p := range ramp.Points {
		over := "no"
		if p.Overloaded {
			over = "YES"
		}
		rampTb.AddRow(fmt.Sprintf("%.0f", p.RPS), fmt.Sprintf("%.0f", p.OfferedRPS),
			fmt.Sprintf("%.0f", p.AchievedRPS), fmt.Sprintf("%.0f", p.GoodputRPS),
			fmt.Sprintf("%.2f", p.MissRate), ms(p.P99LatencyPs), over)
	}
	if ramp.SaturationRPS == 0 {
		return nil, fmt.Errorf("exp: the ramp never saturated the board — extend it past %.0f jobs/s",
			SaturateStartRPS+float64(SaturateSteps-1)*SaturateStepRPS)
	}
	series["knee_rps"] = ramp.KneeRPS
	series["saturation_rps"] = ramp.SaturationRPS

	admitTb := &stats.Table{
		Title: fmt.Sprintf("the same process at the knee (%.0f jobs/s) and past saturation (%.0f jobs/s): policy x admission",
			ramp.KneeRPS, 2*ramp.KneeRPS),
		Headers: []string{"offered", "policy", "admission", "goodput RPS", "shed rate",
			"p99 admitted ms", "p99 ms", "miss rate", "completed"},
	}
	for _, mult := range []float64{1, 2} {
		rps := mult * ramp.KneeRPS
		jobs, err := SaturateStream(rps)
		if err != nil {
			return nil, err
		}
		for _, policy := range []string{"slack", "edf"} {
			for _, admit := range []string{rcsched.AdmitOff, rcsched.AdmitReject, rcsched.AdmitDegrade} {
				rep, err := rcsched.Serve(SaturateConfig(policy, admit), jobs)
				if err != nil {
					return nil, err
				}
				label := fmt.Sprintf("%s/%s/%gx", policy, admit, mult)
				admitTb.AddRow(fmt.Sprintf("%.0fx knee", mult), policy, admit,
					fmt.Sprintf("%.0f", rep.GoodputRPS), fmt.Sprintf("%.2f", rep.ShedRate),
					ms(rep.P99AdmittedPs), ms(rep.P99LatencyPs),
					fmt.Sprintf("%.2f", rep.MissRate), fmt.Sprintf("%d", rep.Completed))
				series["goodput_rps/"+label] = rep.GoodputRPS
				series["shed_rate/"+label] = rep.ShedRate
				series["p99_admitted_ms/"+label] = rep.P99AdmittedPs / 1e9
				series["miss_rate/"+label] = rep.MissRate
			}
		}
	}

	return &Result{
		ID:     "SATURATE",
		Title:  "Open-loop saturation: offered-RPS ramp, overload detection and admission control",
		Tables: []*stats.Table{rampTb, admitTb},
		Notes: []string{
			"arrivals are open-loop: the generator keeps offering load at the target rate whether or not the board keeps up",
			fmt.Sprintf("overload = more than %.0f%% of any %d consecutive jobs failing (missed deadline or shed)",
				100*traffic.DefaultThreshold, traffic.DefaultWindow),
			"admission control estimates each arrival's best-case completion from live slot, stage and queue state and sheds only provably-late jobs",
			"degrade mode serves shed jobs on the timed-SW baseline path instead of rejecting them outright",
		},
		Series: series,
	}, nil
}
