package amba

import "testing"

// BenchmarkCopy is the per-layer benchmark of the operating system's page
// copy (the SW(DP) component): one op moves a 2 KiB page over the AHB in
// bursts of 8 words, either from SDRAM into the DP RAM (page-in) or back
// (write-back). It reports the beats per op and the host time per beat,
// and fails unless an op allocates nothing.
func BenchmarkCopy(b *testing.B) {
	const page, burstWords = 2048, 8
	const dpBase, sdPage = 0x0800_0000, 0x4000
	for _, c := range []struct {
		name     string
		dst, src uint32
	}{{"page-in", dpBase, sdPage}, {"write-back", sdPage, dpBase}} {
		b.Run(c.name, func(b *testing.B) {
			bus, _, _ := testBus(b)
			op := func() {
				if _, err := bus.Copy(c.dst, c.src, page, burstWords); err != nil {
					b.Fatal(err)
				}
			}
			before := bus.Transfers
			op()
			beats := bus.Transfers - before
			if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
				b.Fatalf("%v allocs per op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			b.ReportMetric(float64(beats), "beats/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*beats), "ns/beat")
		})
	}
}
