package ref

import "testing"

// BenchmarkIDEABlock is the per-layer benchmark of the IDEA kernel alone:
// one op encrypts one 8-byte block (IDEACryptBlock), the datapath the IDEA
// coprocessor's kernel and the golden model run per block. It reports
// ns/block and fails unless an op allocates nothing.
func BenchmarkIDEABlock(b *testing.B) {
	k := ExpandIDEAKey(IDEAKey{1, 2, 3, 4, 5, 6, 7, 8})
	x1, x2, x3, x4 := uint16(0x0123), uint16(0x4567), uint16(0x89ab), uint16(0xcdef)
	op := func() { x1, x2, x3, x4 = IDEACryptBlock(&k, x1, x2, x3, x4) }
	if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
		b.Fatalf("%v allocs per block, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/block")
}
