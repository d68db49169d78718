package fleet

import (
	"repro/internal/rcsched"
	"repro/internal/traffic"
)

// Overloaded applies the traffic package's sliding-window failure-rate
// criterion to a fleet report. The window slides over the merged
// arrival-ordered job list, not over per-board concatenations: a failure
// run that spans boards must still trip the detector, and the seams
// between boards must not manufacture runs that never happened.
func Overloaded(rep *Report, window int, threshold float64) bool {
	return traffic.OverloadedJobs(rep.Jobs, window, threshold)
}

// Runner is cfg's traffic.Runner: traffic.FindKnee sweeps each ramp step
// through the dispatcher, and the overload decision is made on the step's
// merged fleet report.
func (cfg Config) Runner() traffic.Runner {
	return func(jobs []rcsched.Job) (traffic.RampPoint, []rcsched.JobReport, error) {
		rep, err := Run(cfg, jobs)
		if err != nil {
			return traffic.RampPoint{}, nil, err
		}
		return traffic.RampPoint{
			OfferedRPS:   rep.OfferedRPS,
			AchievedRPS:  rep.AchievedRPS,
			GoodputRPS:   rep.GoodputRPS,
			ShedRate:     rep.ShedRate,
			MissRate:     rep.MissRate,
			P99LatencyPs: rep.P99LatencyPs,
		}, rep.Jobs, nil
	}
}
