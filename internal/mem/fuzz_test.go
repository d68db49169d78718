package mem

// FuzzByteStoreSparse pins the sparse-page semantics of ByteStore against a
// flat []byte reference model: any sequence of byte, word (with byte
// enables), word-block and byte-block reads/writes/fills — in range or out
// — must behave exactly like dense storage, with unwritten pages reading as
// zero and no partial effects from rejected accesses.

import (
	"bytes"
	"testing"
)

// fuzzStoreSize spans three full backing pages plus a ragged tail so page
// boundaries, the straddling word paths and the end-of-store bounds checks
// are all inside the fuzzed address range.
const fuzzStoreSize = 3*pageBytes + 1234

// u32 decodes 4 bytes little-endian (enough entropy for fuzz addresses).
func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func FuzzByteStoreSparse(f *testing.F) {
	// Seed corpus: page-straddling word accesses, tail bounds, block ops.
	f.Add([]byte{0x00})
	f.Add([]byte{
		2, 0xfe, 0xff, 0x00, 0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0x0f, // word write straddling page 0/1
		3, 0xfe, 0xff, 0x00, 0x00, // read it back
	})
	f.Add([]byte{
		0, 0xd1, 0x04, 0x03, 0x00, 0x42, // byte write near the store tail
		2, 0xd0, 0x04, 0x03, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, // masked word write
		5, 0x00, 0x00, 0x03, 0x00, 0xff, 0xff, // big block read
	})
	f.Add([]byte{
		4, 0x10, 0x00, 0x01, 0x00, 0x20, 1, 2, 3, 4, 5, 6, 7, 8, // block write
		1, 0x12, 0x00, 0x01, 0x00,
	})
	f.Add([]byte{
		6, 0xfa, 0xff, 0x00, 0x00, 2, 1, 2, 3, 4, 5, 6, 7, 8, // word block straddling page 0/1
		7, 0xf8, 0xff, 0x00, 0x00, 4, 0, // read it back
		7, 0x00, 0x00, 0x02, 0x00, 0x00, 0x02, // word block over an unwritten page
	})

	f.Fuzz(func(t *testing.T, in []byte) {
		s := NewByteStore(fuzzStoreSize)
		model := make([]byte, fuzzStoreSize)
		inRange := func(addr uint32, n int) bool {
			return int64(addr)+int64(n) <= int64(fuzzStoreSize)
		}

		for len(in) >= 5 {
			op := in[0] % 8
			addr := u32(in[1:5])
			// Keep most addresses inside (or just beyond) the store so the
			// interesting paths dominate over trivially rejected ones.
			if in[0]&0x80 == 0 {
				addr %= fuzzStoreSize + 8
			}
			in = in[5:]
			switch op {
			case 0: // SetByte
				if len(in) < 1 {
					return
				}
				v := in[0]
				in = in[1:]
				err := s.SetByte(addr, v)
				if ok := inRange(addr, 1); ok != (err == nil) {
					t.Fatalf("SetByte(%#x): err=%v, in-range=%v", addr, err, ok)
				}
				if err == nil {
					model[addr] = v
				}
			case 1: // Byte
				got, err := s.Byte(addr)
				if ok := inRange(addr, 1); ok != (err == nil) {
					t.Fatalf("Byte(%#x): err=%v, in-range=%v", addr, err, ok)
				}
				if err == nil && got != model[addr] {
					t.Fatalf("Byte(%#x) = %#x, model %#x", addr, got, model[addr])
				}
			case 2: // Write32 with byte enables
				if len(in) < 5 {
					return
				}
				v := u32(in[:4])
				be := in[4] & 0xf
				in = in[5:]
				err := s.Write32(addr, v, be)
				if ok := inRange(addr, 4); ok != (err == nil) {
					t.Fatalf("Write32(%#x): err=%v, in-range=%v", addr, err, ok)
				}
				if err == nil {
					for lane := uint32(0); lane < 4; lane++ {
						if be&(1<<lane) != 0 {
							model[addr+lane] = byte(v >> (8 * lane))
						}
					}
				}
			case 3: // Read32
				got, err := s.Read32(addr)
				if ok := inRange(addr, 4); ok != (err == nil) {
					t.Fatalf("Read32(%#x): err=%v, in-range=%v", addr, err, ok)
				}
				if err == nil {
					want := uint32(model[addr]) | uint32(model[addr+1])<<8 |
						uint32(model[addr+2])<<16 | uint32(model[addr+3])<<24
					if got != want {
						t.Fatalf("Read32(%#x) = %#x, model %#x", addr, got, want)
					}
				}
			case 4: // WriteBytes (fill from the remaining input)
				if len(in) < 1 {
					return
				}
				n := int(in[0])
				in = in[1:]
				if n > len(in) {
					n = len(in)
				}
				p := in[:n]
				in = in[n:]
				err := s.WriteBytes(addr, p)
				if ok := inRange(addr, len(p)); ok != (err == nil) {
					t.Fatalf("WriteBytes(%#x,%d): err=%v, in-range=%v", addr, len(p), err, ok)
				}
				if err == nil {
					copy(model[addr:], p)
				}
			case 5: // ReadBytes
				if len(in) < 2 {
					return
				}
				n := int(in[0]) | int(in[1])<<8
				in = in[2:]
				got, err := s.ReadBytes(addr, n)
				if ok := inRange(addr, n); ok != (err == nil) {
					t.Fatalf("ReadBytes(%#x,%d): err=%v, in-range=%v", addr, n, err, ok)
				}
				if err == nil && !bytes.Equal(got, model[addr:int(addr)+n]) {
					t.Fatalf("ReadBytes(%#x,%d) diverged from model", addr, n)
				}
			case 6: // WriteWords (words from the remaining input)
				if len(in) < 1 {
					return
				}
				words := make([]uint32, min(int(in[0]), (len(in)-1)/4))
				in = in[1:]
				for i := range words {
					words[i] = u32(in[:4])
					in = in[4:]
				}
				err := s.WriteWords(addr, words)
				if ok := inRange(addr, 4*len(words)); ok != (err == nil) {
					t.Fatalf("WriteWords(%#x,%d): err=%v, in-range=%v", addr, len(words), err, ok)
				}
				if err == nil {
					for i, v := range words {
						a := int(addr) + 4*i
						model[a], model[a+1], model[a+2], model[a+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
					}
				}
			case 7: // ReadWords
				if len(in) < 2 {
					return
				}
				words := make([]uint32, int(in[0])|int(in[1]&0x3f)<<8)
				in = in[2:]
				err := s.ReadWords(addr, words)
				if ok := inRange(addr, 4*len(words)); ok != (err == nil) {
					t.Fatalf("ReadWords(%#x,%d): err=%v, in-range=%v", addr, len(words), err, ok)
				}
				for i := 0; err == nil && i < len(words); i++ {
					a := int(addr) + 4*i
					want := uint32(model[a]) | uint32(model[a+1])<<8 | uint32(model[a+2])<<16 | uint32(model[a+3])<<24
					if words[i] != want {
						t.Fatalf("ReadWords(%#x,%d)[%d] = %#x, model %#x", addr, len(words), i, words[i], want)
					}
				}
			}
		}

		// Global invariants: the whole store matches the model, and the
		// sparse backing never exceeds the page-rounded capacity.
		final, err := s.ReadBytes(0, fuzzStoreSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final, model) {
			t.Fatal("final store contents diverged from the flat model")
		}
		if mat := s.MaterializedBytes(); mat > 4*pageBytes {
			t.Fatalf("materialised %d bytes, capacity is %d", mat, 4*pageBytes)
		}
	})
}
