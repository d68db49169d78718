package ref

// IDEA block cipher (Lai–Massey, 1991): 64-bit blocks, 128-bit keys,
// 8.5 rounds over three group operations on 16-bit words — XOR, addition
// mod 2^16, and multiplication in GF(2^16+1) with 0 representing 2^16.
//
// This is the cryptographic application of the paper's Figure 9; the
// coprocessor model implements the same rounds in a 3-stage pipeline.

// IDEARounds is the number of full rounds.
const IDEARounds = 8

// IDEASubkeys is the number of 16-bit subkeys per direction.
const IDEASubkeys = 6*IDEARounds + 4

// IDEABlockBytes is the cipher block size in bytes.
const IDEABlockBytes = 8

// IdeaMul multiplies in GF(2^16+1) with the usual 0 ⇔ 2^16 convention.
func IdeaMul(a, b uint16) uint16 {
	switch {
	case a == 0:
		return uint16(1 - int32(b)) // 65537 - b (mod 2^16)
	case b == 0:
		return uint16(1 - int32(a))
	default:
		p := uint32(a) * uint32(b)
		lo, hi := p&0xffff, p>>16
		r := lo - hi
		if lo < hi {
			r += 0x10001
		}
		return uint16(r)
	}
}

// ideaMulInv returns the multiplicative inverse in GF(2^16+1) by Fermat
// exponentiation: 65537 is prime, so x^-1 = x^65535 (mod 65537).
func ideaMulInv(x uint16) uint16 {
	if x <= 1 {
		return x // 0 ⇔ 2^16 ≡ -1 is its own inverse; 1 likewise
	}
	const m = 0x10001
	result, base := uint64(1), uint64(x)
	for e := uint32(m - 2); e > 0; e >>= 1 {
		if e&1 == 1 {
			result = result * base % m
		}
		base = base * base % m
	}
	return uint16(result)
}

// IDEAKey is a 128-bit cipher key.
type IDEAKey [16]byte

// ExpandIDEAKey derives the 52 encryption subkeys: the first eight are the
// big-endian halves of the key; the rest come from repeated 25-bit left
// rotations of the 128-bit key.
func ExpandIDEAKey(key IDEAKey) [IDEASubkeys]uint16 {
	var ek [IDEASubkeys]uint16
	for i := 0; i < 8; i++ {
		ek[i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	for i := 8; i < IDEASubkeys; i++ {
		switch {
		case i&7 < 6:
			ek[i] = ek[i-7]&127<<9 | ek[i-6]>>7
		case i&7 == 6:
			ek[i] = ek[i-7]&127<<9 | ek[i-14]>>7
		default:
			ek[i] = ek[i-15]&127<<9 | ek[i-14]>>7
		}
	}
	return ek
}

// InvertIDEAKey turns encryption subkeys into decryption subkeys, so that
// IDEACryptBlock with the result undoes IDEACryptBlock with the original.
func InvertIDEAKey(ek [IDEASubkeys]uint16) [IDEASubkeys]uint16 {
	var dk [IDEASubkeys]uint16
	neg := func(x uint16) uint16 { return uint16(-int32(x)) }

	dk[0] = ideaMulInv(ek[48])
	dk[1] = neg(ek[49])
	dk[2] = neg(ek[50])
	dk[3] = ideaMulInv(ek[51])
	dk[4] = ek[46]
	dk[5] = ek[47]
	for r := 1; r < IDEARounds; r++ {
		base := 6 * (IDEARounds - r)
		dk[6*r+0] = ideaMulInv(ek[base+0])
		dk[6*r+1] = neg(ek[base+2]) // note the swap of the two
		dk[6*r+2] = neg(ek[base+1]) // addition subkeys mid-rounds
		dk[6*r+3] = ideaMulInv(ek[base+3])
		dk[6*r+4] = ek[base-2]
		dk[6*r+5] = ek[base-1]
	}
	dk[48] = ideaMulInv(ek[0])
	dk[49] = neg(ek[1])
	dk[50] = neg(ek[2])
	dk[51] = ideaMulInv(ek[3])
	return dk
}

// IDEACryptBlock transforms one block (x1..x4 as big-endian 16-bit words)
// with the given subkeys. Encryption and decryption differ only in the
// subkey array.
func IDEACryptBlock(k *[IDEASubkeys]uint16, x1, x2, x3, x4 uint16) (y1, y2, y3, y4 uint16) {
	ki := 0
	next := func() uint16 { v := k[ki]; ki++; return v }
	for r := 0; r < IDEARounds; r++ {
		x1 = IdeaMul(x1, next())
		x2 += next()
		x3 += next()
		x4 = IdeaMul(x4, next())

		s3 := x3
		x3 = IdeaMul(x1^x3, next())
		s2 := x2
		x2 = IdeaMul((x2^x4)+x3, next())
		x3 += x2

		x1 ^= x2
		x4 ^= x3
		x2 ^= s3
		x3 ^= s2
	}
	y1 = IdeaMul(x1, next())
	y2 = x3 + next() // the final transform undoes the last swap
	y3 = x2 + next()
	y4 = IdeaMul(x4, next())
	return
}

// IDEAApply processes a whole buffer of 8-byte blocks (big-endian words,
// ECB mode as in the paper's streaming benchmark). len(in) must be a
// multiple of IDEABlockBytes.
func IDEAApply(k *[IDEASubkeys]uint16, in []byte) []byte {
	out := make([]byte, len(in))
	IDEAApplyTo(k, out, in)
	return out
}

// IDEAApplyTo is IDEAApply into a caller-owned buffer: it transforms every
// whole block of in into out (len(out) >= len(in)) and writes nothing else.
func IDEAApplyTo(k *[IDEASubkeys]uint16, out, in []byte) {
	for off := 0; off+IDEABlockBytes <= len(in); off += IDEABlockBytes {
		x1 := uint16(in[off])<<8 | uint16(in[off+1])
		x2 := uint16(in[off+2])<<8 | uint16(in[off+3])
		x3 := uint16(in[off+4])<<8 | uint16(in[off+5])
		x4 := uint16(in[off+6])<<8 | uint16(in[off+7])
		y1, y2, y3, y4 := IDEACryptBlock(k, x1, x2, x3, x4)
		out[off] = byte(y1 >> 8)
		out[off+1] = byte(y1)
		out[off+2] = byte(y2 >> 8)
		out[off+3] = byte(y2)
		out[off+4] = byte(y3 >> 8)
		out[off+5] = byte(y3)
		out[off+6] = byte(y4 >> 8)
		out[off+7] = byte(y4)
	}
}

// VecAdd is the golden model of the motivating example: C[i] = A[i] + B[i]
// over 32-bit words.
func VecAdd(a, b []uint32) []uint32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := make([]uint32, n)
	for i := 0; i < n; i++ {
		c[i] = a[i] + b[i]
	}
	return c
}
