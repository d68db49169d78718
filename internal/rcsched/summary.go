package rcsched

import (
	"sort"

	"repro/internal/stats"
)

// Summary is the job-population view of a serving run, folded from the
// per-job reports alone: a single board's Report and a fleet's merged
// report carry the same fields, computed by the same Summarize.
type Summary struct {
	// MakespanPs is the hardware-timeline instant of the last completion.
	MakespanPs float64

	// P99LatencyPs is the nearest-rank 99th-percentile latency over the
	// jobs that completed (rejected jobs never complete; an empty
	// completion set reports an explicit 0). P99AdmittedPs restricts the
	// percentile to slot-served jobs — the population whose tail admission
	// control promises to bound. Misses/MissRate count completed jobs that
	// finished after their deadline, over the completed jobs that carry
	// one.
	P99LatencyPs  float64
	P99AdmittedPs float64
	Misses        int
	MissRate      float64

	// Admitted/Degraded/Rejected partition the stream by disposition
	// (admission off: everything Admitted). Completed counts jobs that
	// produced output (admitted + degraded); GoodJobs are completions that
	// met their deadline (deadline-free completions count — any finished
	// job is useful work). OfferedRPS is the stream's arrival rate over its
	// arrival span; AchievedRPS and GoodputRPS are completions,
	// respectively deadline-met completions, per second of makespan.
	// ShedRate is the rejected fraction of the whole stream. All rates are
	// explicit zeros when their denominator is empty (e.g. every job
	// rejected).
	Admitted    int
	Degraded    int
	Rejected    int
	Completed   int
	GoodJobs    int
	OfferedRPS  float64
	AchievedRPS float64
	GoodputRPS  float64
	ShedRate    float64
}

// Summarize folds a job population into its Summary. Latency, deadline and
// throughput figures run over the *completed* jobs — rejected jobs never
// produced output, so folding their zero latencies in would flatter every
// percentile — while the offered rate and the shed rate run over the whole
// stream. The jobs may come from one board or be merged from many; only
// their order-free contents matter.
func Summarize(jobs []JobReport) Summary {
	var s Summary
	lats := make([]float64, 0, len(jobs))
	admLats := make([]float64, 0, len(jobs))
	deadlined := 0
	lastArrivalPs := 0.0
	for i := range jobs {
		j := &jobs[i]
		if j.ArrivalPs > lastArrivalPs {
			lastArrivalPs = j.ArrivalPs
		}
		switch j.Disposition {
		case Rejected:
			s.Rejected++
			continue
		case Degraded:
			s.Degraded++
		default:
			s.Admitted++
			admLats = append(admLats, j.LatencyPs)
		}
		s.Completed++
		lats = append(lats, j.LatencyPs)
		if j.DonePs > s.MakespanPs {
			s.MakespanPs = j.DonePs
		}
		if j.DeadlinePs > 0 {
			deadlined++
			if j.Missed {
				s.Misses++
			} else {
				s.GoodJobs++
			}
		} else {
			s.GoodJobs++ // no SLO: any completion is useful work
		}
	}
	sort.Float64s(lats)
	sort.Float64s(admLats)
	s.P99LatencyPs = stats.NearestRank(lats, 0.99)
	s.P99AdmittedPs = stats.NearestRank(admLats, 0.99)
	if deadlined > 0 {
		s.MissRate = float64(s.Misses) / float64(deadlined)
	}
	if len(jobs) > 0 {
		s.ShedRate = float64(s.Rejected) / float64(len(jobs))
	}
	if len(jobs) > 1 && lastArrivalPs > 0 {
		s.OfferedRPS = float64(len(jobs)-1) * 1e12 / lastArrivalPs
	}
	if s.MakespanPs > 0 {
		s.AchievedRPS = float64(s.Completed) * 1e12 / s.MakespanPs
		s.GoodputRPS = float64(s.GoodJobs) * 1e12 / s.MakespanPs
	}
	return s
}
