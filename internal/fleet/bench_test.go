package fleet_test

import (
	"fmt"
	"testing"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/traffic"
)

// BenchmarkRoute is the per-layer benchmark of fleet routing alone: one op
// routes a 1000-job Poisson stream, offered at 1600 jobs/s per board, over
// 8, 64 and 1000 boards under the affinity dispatcher, serving nothing. It
// reports ns/op and allocs/op; the decision trace's per-board load and
// residency vectors make both grow with the board count.
func BenchmarkRoute(b *testing.B) {
	for _, boards := range []int{8, 64, 1000} {
		b.Run(fmt.Sprintf("boards-%d", boards), func(b *testing.B) {
			jobs, err := traffic.Stream(1000, 7, traffic.Spec{Process: traffic.Poisson, RPS: 1600 * float64(boards)})
			if err != nil {
				b.Fatal(err)
			}
			cfg := fleet.Config{
				Boards: boards, Dispatch: fleet.Affinity, Seed: 7,
				Board: rcsched.Config{Policy: "slack", Slots: 2},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := fleet.Route(cfg, jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
