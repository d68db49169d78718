package fleet

import (
	"repro/internal/rcsched"
	"repro/internal/traffic"
)

// Runner is cfg's traffic.Runner: traffic.FindKnee sweeps each ramp step
// through the dispatcher and judges the step on the merged, arrival-ordered
// job list.
func (cfg Config) Runner() traffic.Runner {
	return func(jobs []rcsched.Job) ([]rcsched.JobReport, error) {
		rep, err := Run(cfg, jobs)
		if err != nil {
			return nil, err
		}
		return rep.Jobs, nil
	}
}
