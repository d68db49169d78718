// Package ref holds golden reference implementations of the application
// algorithms used by the paper's evaluation: the IMA/DVI ADPCM codec (the
// "adpcmdecode" multimedia benchmark) and the IDEA block cipher. The
// coprocessor models and the timed software kernels are verified against
// these implementations bit-for-bit.
package ref

// IMA/DVI ADPCM tables (Intel/DVI reference codec).
var adpcmIndexTable = [16]int{
	-1, -1, -1, -1, 2, 4, 6, 8,
	-1, -1, -1, -1, 2, 4, 6, 8,
}

var adpcmStepTable = [89]int{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// ADPCMState is the codec state carried across calls. The zero value is the
// canonical initial state.
type ADPCMState struct {
	Valprev int16 // predicted output value
	Index   int8  // index into the step-size table
}

// ADPCMIndexTable exposes the index-adaptation table (the coprocessor model
// embeds the same ROM).
func ADPCMIndexTable() [16]int { return adpcmIndexTable }

// ADPCMStepTable exposes the step-size table ROM.
func ADPCMStepTable() [89]int { return adpcmStepTable }

// ADPCMMaxIndex is the last index into the step-size table.
const ADPCMMaxIndex = len(adpcmStepTable) - 1

// ADPCMNextIndex is the step-size index after code delta at index idx: the
// index adaptation alone, which depends on the codes and not on the
// samples.
func ADPCMNextIndex(idx int8, delta byte) int8 {
	return int8(min(max(int(idx)+adpcmIndexTable[delta&0xf], 0), ADPCMMaxIndex))
}

// ADPCMDecodeNibble advances the decoder by one 4-bit code and returns the
// reconstructed sample. This is the shared primitive between the golden
// decoder, the timed software kernel and the coprocessor model tests.
func ADPCMDecodeNibble(st *ADPCMState, delta byte) int16 {
	step := adpcmStepTable[st.Index]
	st.Index = ADPCMNextIndex(st.Index, delta)

	sign := delta & 8
	mag := int(delta & 7)

	vpdiff := step >> 3
	if mag&4 != 0 {
		vpdiff += step
	}
	if mag&2 != 0 {
		vpdiff += step >> 1
	}
	if mag&1 != 0 {
		vpdiff += step >> 2
	}

	v := int(st.Valprev)
	if sign != 0 {
		v -= vpdiff
	} else {
		v += vpdiff
	}
	if v > 32767 {
		v = 32767
	}
	if v < -32768 {
		v = -32768
	}
	st.Valprev = int16(v)
	return st.Valprev
}

// ADPCMEncodeSample quantises one 16-bit sample to a 4-bit code, updating
// the state exactly as the decoder will.
func ADPCMEncodeSample(st *ADPCMState, sample int16) byte {
	step := adpcmStepTable[st.Index]

	diff := int(sample) - int(st.Valprev)
	var delta byte
	if diff < 0 {
		delta = 8
		diff = -diff
	}

	var code byte
	vpdiff := step >> 3
	if diff >= step {
		code |= 4
		diff -= step
		vpdiff += step
	}
	step >>= 1
	if diff >= step {
		code |= 2
		diff -= step
		vpdiff += step
	}
	step >>= 1
	if diff >= step {
		code |= 1
		vpdiff += step
	}
	delta |= code

	v := int(st.Valprev)
	if delta&8 != 0 {
		v -= vpdiff
	} else {
		v += vpdiff
	}
	if v > 32767 {
		v = 32767
	}
	if v < -32768 {
		v = -32768
	}
	st.Valprev = int16(v)
	st.Index = ADPCMNextIndex(st.Index, delta)
	return delta & 0xf
}

// ADPCMDecode decodes packed 4-bit codes (high nibble first) into 16-bit
// samples: every input byte yields two samples, so the output is four times
// the input size — the property the paper relies on in Figure 8.
func ADPCMDecode(st ADPCMState, in []byte) []int16 {
	out := make([]int16, 0, len(in)*2)
	for _, b := range in {
		out = append(out, ADPCMDecodeNibble(&st, b>>4))
		out = append(out, ADPCMDecodeNibble(&st, b&0xf))
	}
	return out
}

// ADPCMEncode packs samples two per byte, high nibble first. Odd trailing
// samples are padded with a zero code.
func ADPCMEncode(st ADPCMState, samples []int16) []byte {
	out := make([]byte, 0, (len(samples)+1)/2)
	for i := 0; i < len(samples); i += 2 {
		hi := ADPCMEncodeSample(&st, samples[i])
		var lo byte
		if i+1 < len(samples) {
			lo = ADPCMEncodeSample(&st, samples[i+1])
		}
		out = append(out, hi<<4|lo)
	}
	return out
}
