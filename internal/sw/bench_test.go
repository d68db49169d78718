package sw

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ref"
)

// BenchmarkKernels is the per-layer benchmark of the pure-software
// baseline: one op runs a kernel from a cold D-cache over a pinned input on
// the timed CPU model alone (no board, kernel or engine around it):
//
//   - idea-32KB: IDEAApply over 4096 blocks;
//   - adpcm-8KB: ADPCMDecode of 8 KB of codes into 16 Ki samples;
//   - vecadd-16Ki: VecAdd over 16 Ki words.
//
// It reports the simulated CPU cycles per op and the host time per
// simulated cycle, and fails unless an op allocates nothing.
func BenchmarkKernels(b *testing.B) {
	const (
		tables, keys        = 0x0_0000, 0x0_0400
		in, out, vb, vc     = 0x1_0000, 0x2_0000, 0x4_0000, 0x6_0000
		ideaBytes, adpcmLen = 32 << 10, 8 << 10
		vecWords            = 16 << 10
	)
	for _, c := range []struct {
		name string
		run  func(x *cpu.Ctx, tb Tables)
	}{
		{"idea-32KB", func(x *cpu.Ctx, _ Tables) { IDEAApply(x, in, out, keys, ideaBytes/ref.IDEABlockBytes) }},
		{"adpcm-8KB", func(x *cpu.Ctx, tb Tables) { ADPCMDecode(x, tb, in, out, adpcmLen) }},
		{"vecadd-16Ki", func(x *cpu.Ctx, _ Tables) { VecAdd(x, in, vb, vc, vecWords) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := newCtx(b)
			st := x.Core().SDRAM.Store()
			tb := WriteTables(writer(x), tables)
			rng := rand.New(rand.NewSource(4242))
			var key ref.IDEAKey
			rng.Read(key[:])
			WriteSubkeys(writer(x), keys, ref.ExpandIDEAKey(key))
			data := make([]byte, 4*vecWords)
			for _, base := range []uint32{in, vb} {
				rng.Read(data)
				if err := st.WriteBytes(base, data); err != nil {
					b.Fatal(err)
				}
			}
			core := x.Core()
			op := func() {
				core.InvalidateCache()
				core.ResetStats()
				c.run(x, tb)
			}
			op()
			cycles := core.Cycles()
			if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
				b.Fatalf("%v allocs per op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			b.ReportMetric(float64(cycles), "cpu-cycles/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cycles)), "ns/cpu-cycle")
		})
	}
}
