package repro

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/copro/vecadd"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ref"
	"repro/internal/sw"
)

// IDEAKey is a 128-bit IDEA cipher key.
type IDEAKey = ref.IDEAKey

// Object identifiers of the bundled coprocessors (the software/hardware
// designer contract of §3.1).
const (
	VecAddObjA = vecadd.ObjA
	VecAddObjB = vecadd.ObjB
	VecAddObjC = vecadd.ObjC

	ADPCMObjIn  = adpcmdec.ObjIn
	ADPCMObjOut = adpcmdec.ObjOut

	IDEAObjIn  = ideacp.ObjIn
	IDEAObjOut = ideacp.ObjOut
)

// mustBuild builds a bit-stream image or panics (the inputs are constants).
func mustBuild(h bitstream.Header) []byte {
	img, err := bitstream.Build(h)
	if err != nil {
		panic(fmt.Sprintf("repro: bitstream build: %v", err))
	}
	return img
}

// syntheticPayload generates deterministic configuration frames sized to
// the resource count, standing in for the synthesised SOF content.
func syntheticPayload(les uint32) []byte {
	p := make([]byte, les/4)
	x := uint32(0x2468ace1)
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// VecAddBitstream returns the vector-add coprocessor image for a board
// (core and IMU at 40 MHz).
func VecAddBitstream(board string) []byte {
	return mustBuild(bitstream.Header{
		Device:    board,
		Core:      vecadd.CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       1450,
		Payload:   syntheticPayload(1450),
	})
}

// ADPCMBitstream returns the adpcmdecode coprocessor image (core and IMU at
// 40 MHz, the paper's Figure 8 clock plan).
func ADPCMBitstream(board string) []byte {
	return mustBuild(bitstream.Header{
		Device:    board,
		Core:      adpcmdec.CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       2100,
		Payload:   syntheticPayload(2100),
	})
}

// IDEABitstream returns the IDEA coprocessor image (6 MHz core behind a
// 24 MHz IMU and memory subsystem, the paper's Figure 9 clock plan).
func IDEABitstream(board string) []byte {
	return mustBuild(bitstream.Header{
		Device:    board,
		Core:      ideacp.CoreName,
		CoreClock: 6_000_000,
		IMUClock:  24_000_000,
		LEs:       3900,
		Payload:   syntheticPayload(3900),
	})
}

// IDEAEncryptParams builds the FPGA_EXECUTE parameter list for the IDEA
// coprocessor: the block count followed by the packed encryption subkeys.
func IDEAEncryptParams(key IDEAKey, nblocks int) []uint32 {
	ek := ref.ExpandIDEAKey(key)
	params := []uint32{uint32(nblocks)}
	for _, w := range ideacp.PackSubkeys(ek) {
		params = append(params, w)
	}
	return params
}

// IDEADecryptParams builds the parameter list with the inverted (decryption)
// key schedule.
func IDEADecryptParams(key IDEAKey, nblocks int) []uint32 {
	dk := ref.InvertIDEAKey(ref.ExpandIDEAKey(key))
	params := []uint32{uint32(nblocks)}
	for _, w := range ideacp.PackSubkeys(dk) {
		params = append(params, w)
	}
	return params
}

// --- Pure-software versions (the paper's baseline bars) -----------------

// ensureTables lazily materialises the ADPCM ROMs in the process image.
func (p *Process) ensureTables() (sw.Tables, error) {
	if p.tablesOK {
		return p.tables, nil
	}
	buf, err := p.Alloc(512)
	if err != nil {
		return sw.Tables{}, err
	}
	st := p.sys.board.SDRAM.Store()
	p.tables = sw.WriteTables(func(addr, v uint32) {
		if err := st.Write32(addr, v, 0xf); err != nil {
			panic(err)
		}
	}, buf.addr)
	p.tablesOK = true
	return p.tables, nil
}

// owns reports an error unless every buffer was allocated by p.
func (p *Process) owns(bufs ...Buffer) error {
	for _, b := range bufs {
		if b.p != p {
			return fmt.Errorf("repro: buffer at %#x was not allocated by process %q", b.addr, p.proc.Name)
		}
	}
	return nil
}

// RunVecAddSW executes the pure-software vector addition of n 32-bit
// elements and returns its measured report. Each buffer must belong to p
// and hold at least 4n bytes.
func (p *Process) RunVecAddSW(a, b, c Buffer, n int) (*Report, error) {
	if err := p.owns(a, b, c); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("repro: negative vector length %d", n)
	}
	for _, buf := range []Buffer{a, b, c} {
		if buf.size/4 < n {
			return nil, fmt.Errorf("repro: %d-byte buffer at %#x is shorter than %d elements", buf.size, buf.addr, n)
		}
	}
	ctx := cpu.NewCtx(p.sys.board.CPU)
	return core.RunSoftware(p.sys.board, "vecadd-sw", func() {
		sw.VecAdd(ctx, a.addr, b.addr, c.addr, uint32(n))
	}), nil
}

// RunADPCMDecodeSW executes the pure-software decoder over the whole input
// buffer and returns its measured report. Both buffers must belong to p.
func (p *Process) RunADPCMDecodeSW(in, out Buffer) (*Report, error) {
	if err := p.owns(in, out); err != nil {
		return nil, err
	}
	if out.size < in.size*4 {
		return nil, fmt.Errorf("repro: ADPCM output buffer must be 4x the input (%d < %d)", out.size, in.size*4)
	}
	tb, err := p.ensureTables()
	if err != nil {
		return nil, err
	}
	ctx := cpu.NewCtx(p.sys.board.CPU)
	return core.RunSoftware(p.sys.board, "adpcmdecode-sw", func() {
		sw.ADPCMDecode(ctx, tb, in.addr, out.addr, uint32(in.size))
	}), nil
}

// RunIDEASW executes the pure-software cipher (encryption schedule) over
// whole blocks and returns its measured report. Both buffers must belong
// to p.
func (p *Process) RunIDEASW(key IDEAKey, in, out Buffer) (*Report, error) {
	if err := p.owns(in, out); err != nil {
		return nil, err
	}
	if in.size%ref.IDEABlockBytes != 0 || out.size < in.size {
		return nil, fmt.Errorf("repro: IDEA buffers must be whole blocks, out >= in")
	}
	keyBuf, err := p.Alloc(ref.IDEASubkeys * 2)
	if err != nil {
		return nil, err
	}
	st := p.sys.board.SDRAM.Store()
	sw.WriteSubkeys(func(addr, v uint32) {
		if err := st.Write32(addr, v, 0xf); err != nil {
			panic(err)
		}
	}, keyBuf.addr, ref.ExpandIDEAKey(key))
	ctx := cpu.NewCtx(p.sys.board.CPU)
	return core.RunSoftware(p.sys.board, "idea-sw", func() {
		sw.IDEAApply(ctx, in.addr, out.addr, keyBuf.addr, uint32(in.size/ref.IDEABlockBytes))
	}), nil
}

// --- Golden reference models (re-exported for applications/examples) -----

// GoldenADPCMEncode compresses 16-bit samples with the reference IMA/DVI
// encoder (two 4-bit codes per byte, high nibble first).
func GoldenADPCMEncode(samples []int16) []byte {
	return ref.ADPCMEncode(ref.ADPCMState{}, samples)
}

// GoldenADPCMDecode is the reference decoder the coprocessor must match.
func GoldenADPCMDecode(packed []byte) []int16 {
	return ref.ADPCMDecode(ref.ADPCMState{}, packed)
}

// GoldenIDEAEncrypt applies the reference cipher with the encryption
// schedule (whole 8-byte blocks, ECB).
func GoldenIDEAEncrypt(key IDEAKey, in []byte) []byte {
	ek := ref.ExpandIDEAKey(key)
	return ref.IDEAApply(&ek, in)
}

// GoldenIDEADecrypt applies the reference cipher with the inverted
// (decryption) schedule.
func GoldenIDEADecrypt(key IDEAKey, in []byte) []byte {
	dk := ref.InvertIDEAKey(ref.ExpandIDEAKey(key))
	return ref.IDEAApply(&dk, in)
}
