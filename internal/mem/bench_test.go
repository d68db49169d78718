package mem

import "testing"

// BenchmarkByteStore is the per-layer benchmark of the memory model: one
// op touches one 2 KB VIM page of a store, as 512 Write32 calls, 512
// Read32 calls or one ReadInto. It runs on a 32 KB store (the EPXA4
// dual-port RAM) and a 128 MB one (the EPXA4 SDRAM, its span in the user
// arena above the first backing page), both with the span already written,
// and fails unless an op allocates nothing.
func BenchmarkByteStore(b *testing.B) {
	const span = 2048
	for _, st := range []struct {
		name string
		size int
		base uint32
	}{{"dpram-32KB", 32 << 10, 8 << 10}, {"sdram-128MB", 128 << 20, 0x0001_0000 + 6<<10}} {
		s := NewByteStore(st.size)
		for a := st.base; a < st.base+span; a += 4 {
			if err := s.Write32(a, a*2654435761, 0xf); err != nil {
				b.Fatal(err)
			}
		}
		dst := make([]byte, span)
		var sum uint32
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"Write32", func() {
				for a := st.base; a < st.base+span; a += 4 {
					_ = s.Write32(a, a, 0xf)
				}
			}},
			{"Read32", func() {
				for a := st.base; a < st.base+span; a += 4 {
					v, _ := s.Read32(a)
					sum += v
				}
			}},
			{"ReadInto", func() { _ = s.ReadInto(st.base, dst) }},
		} {
			b.Run(st.name+"/"+c.name, func(b *testing.B) {
				c.op()
				if allocs := testing.AllocsPerRun(10, c.op); allocs != 0 {
					b.Fatalf("%v allocs per op, want 0", allocs)
				}
				b.ReportAllocs()
				b.SetBytes(span)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.op()
				}
			})
		}
	}
}
