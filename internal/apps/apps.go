// Package apps is the one description of each bundled application, as the
// paper's §3.1 contract sees it: the data objects the coprocessor addresses
// (identifier, direction and bytes per work item), the input bytes a run
// draws from its seed, the FPGA_EXECUTE parameters, the golden model of the
// output and the pure-software version. The serving layer, the experiments,
// the no-VIM baselines and vimsim all read this table.
//
// A run's size is its input bytes: IDEA's plaintext, ADPCM's packed codes,
// one vecadd operand. The drawn input is the key bytes (IDEA's cipher key)
// followed by every input object's data in table order, so one read of a
// seeded generator fills it exactly as consecutive reads of each part would.
package apps

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro"
	"repro/internal/bitstream"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/kernel"
	"repro/internal/ref"
	"repro/internal/vim"
)

// MaxObjects bounds the data objects of any bundled application, MaxKey
// its key bytes and MaxParams its FPGA_EXECUTE parameter words (IDEA's
// block count and 26 packed subkey words).
const (
	MaxObjects = 3
	MaxKey     = 16
	MaxParams  = 1 + ref.IDEASubkeys/2
)

// Object is one data object of an application.
type Object struct {
	ID  uint8
	Dir vim.Direction
	// ItemBytes is the object's bytes per work item; the hand-chunked
	// baseline splits every object on it.
	ItemBytes int
}

// App describes one bundled application. Its objects are allocated and
// mapped in table order; the first is the input whose bytes count the run's
// work items, and the last is the output the golden model predicts.
type App struct {
	Name      string
	Bitstream func(board string) []byte
	// Key is the number of drawn input bytes ahead of the object data that
	// only feed the parameters (IDEA's cipher key).
	Key     int
	Objects []Object
	// Params appends to dst the FPGA_EXECUTE parameters for items work
	// items of the drawn input in (at most MaxParams words).
	Params func(dst []uint32, in []byte, items int) []uint32
	// Resume, if set, extends a chunk's parameters p so that the core
	// continues from the state the first done work items of in left it in;
	// out holds the output of those items. The hand-chunked baseline runs
	// one FPGA_EXECUTE per chunk and calls it for every chunk after the
	// first: a core whose state runs across items (ADPCM's predictor and
	// step index) would otherwise restart it at every chunk.
	Resume func(p []uint32, in, out []byte, done int) []uint32
	// Golden writes the expected output of the drawn input in into want
	// (the output object's bytes); a ragged tail the core never touches
	// stays zero.
	Golden func(in, want []byte)
	// SW runs the pure-software version on p over the objects' buffers.
	SW func(p *repro.Process, bufs []repro.Buffer, in []byte) (*repro.Report, error)
}

var table = map[string]*App{
	"idea": {
		Name:      "idea",
		Bitstream: repro.IDEABitstream,
		Key:       len(repro.IDEAKey{}),
		Objects: []Object{
			{repro.IDEAObjIn, vim.In, ref.IDEABlockBytes},
			{repro.IDEAObjOut, vim.Out, ref.IDEABlockBytes},
		},
		Params: ideaParams,
		Golden: goldenIDEA,
		SW: func(p *repro.Process, b []repro.Buffer, in []byte) (*repro.Report, error) {
			return p.RunIDEASW(ideaKey(in), b[0], b[1])
		},
	},
	"adpcm": {
		Name:      "adpcm",
		Bitstream: repro.ADPCMBitstream,
		Objects: []Object{
			{repro.ADPCMObjIn, vim.In, 1},
			{repro.ADPCMObjOut, vim.Out, 4}, // two 16-bit samples per packed byte
		},
		Params: countParam,
		Resume: adpcmResume,
		Golden: goldenADPCM,
		SW: func(p *repro.Process, b []repro.Buffer, _ []byte) (*repro.Report, error) {
			return p.RunADPCMDecodeSW(b[0], b[1])
		},
	},
	"vecadd": {
		Name:      "vecadd",
		Bitstream: repro.VecAddBitstream,
		Objects: []Object{
			{repro.VecAddObjA, vim.In, 4},
			{repro.VecAddObjB, vim.In, 4},
			{repro.VecAddObjC, vim.Out, 4},
		},
		Params: countParam,
		Golden: goldenVecAdd,
		SW: func(p *repro.Process, b []repro.Buffer, _ []byte) (*repro.Report, error) {
			return p.RunVecAddSW(b[0], b[1], b[2], b[0].Size()/4)
		},
	},
}

// Get returns the named application.
func Get(name string) (*App, bool) {
	a, ok := table[name]
	return a, ok
}

// Items is the number of work items in size input bytes.
func (a *App) Items(size int) int { return size / a.Objects[0].ItemBytes }

// Bytes is object i's length in a run over size input bytes.
func (a *App) Bytes(i, size int) int { return size * a.Objects[i].ItemBytes / a.Objects[0].ItemBytes }

// Out is the index of the output object.
func (a *App) Out() int { return len(a.Objects) - 1 }

// InBytes is the number of input bytes a run over size bytes draws.
func (a *App) InBytes(size int) int {
	n := a.Key
	for i, o := range a.Objects {
		if o.Dir != vim.Out {
			n += a.Bytes(i, size)
		}
	}
	return n
}

// Input returns object i's data within the drawn input in (nil for an
// output object).
func (a *App) Input(in []byte, i, size int) []byte {
	if a.Objects[i].Dir == vim.Out {
		return nil
	}
	off := a.Key
	for j := 0; j < i; j++ {
		if a.Objects[j].Dir != vim.Out {
			off += a.Bytes(j, size)
		}
	}
	return in[off : off+a.Bytes(i, size)]
}

// Place allocates every object of a size-byte run in k's user memory, in
// table order, then writes the input objects from the drawn input in (an
// untimed process-image set-up) and stores each object's address in base.
func (a *App) Place(k *kernel.Kernel, size int, in []byte, base []uint32) error {
	for i := range a.Objects {
		addr, err := k.Alloc(a.Bytes(i, size))
		if err != nil {
			return err
		}
		base[i] = addr
	}
	for i := range a.Objects {
		if data := a.Input(in, i, size); data != nil {
			if err := k.WriteUser(base[i], data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Map declares the objects placed at base on session s (FPGA_MAP_OBJECT).
func (a *App) Map(s *vim.Session, size int, base []uint32) error {
	for i, o := range a.Objects {
		if err := s.MapObject(o.ID, base[i], uint32(a.Bytes(i, size)), o.Dir); err != nil {
			return err
		}
	}
	return nil
}

// Image is an application resolved for one board: its bitstream and the
// core the bitstream configures.
type Image struct {
	*App
	Img  []byte
	Core string
}

// images caches Images per board name: the images and parsed core names
// are immutable, so every caller on a board shares one map.
var images sync.Map // board name -> map[string]*Image

// Images resolves every bundled application for a board, keyed by name.
func Images(board string) (map[string]*Image, error) {
	if t, ok := images.Load(board); ok {
		return t.(map[string]*Image), nil
	}
	t := make(map[string]*Image, len(table))
	for name, a := range table {
		img := a.Bitstream(board)
		h, err := bitstream.Parse(img)
		if err != nil {
			return nil, fmt.Errorf("apps: %s bitstream: %w", name, err)
		}
		t[name] = &Image{App: a, Img: img, Core: h.Core}
	}
	v, _ := images.LoadOrStore(board, t)
	return v.(map[string]*Image), nil
}

// countParam passes the work-item count as the only parameter.
func countParam(dst []uint32, _ []byte, items int) []uint32 { return append(dst, uint32(items)) }

// ideaParams passes the block count and the encryption key schedule,
// packed two subkeys per word (repro.IDEAEncryptParams, appended in place).
func ideaParams(dst []uint32, in []byte, items int) []uint32 {
	sk := ideacp.PackSubkeys(ref.ExpandIDEAKey(ideaKey(in)))
	return append(append(dst, uint32(items)), sk[:]...)
}

// adpcmResume announces the decoder state after the first done packed
// bytes as a second parameter word, as a hand-written application carries
// it: the predictor is the last sample decoded, and the step index follows
// from the codes consumed.
func adpcmResume(p []uint32, packed, out []byte, done int) []uint32 {
	st := ref.ADPCMState{Valprev: int16(binary.LittleEndian.Uint16(out[4*done-2:]))}
	for _, b := range packed[:done] {
		st.Index = ref.ADPCMNextIndex(ref.ADPCMNextIndex(st.Index, b>>4), b&0xf)
	}
	p[0] |= adpcmdec.ParamResume
	return append(p, adpcmdec.StateWord(st))
}

// ideaKey is the cipher key at the head of IDEA's drawn input.
func ideaKey(in []byte) repro.IDEAKey {
	var key repro.IDEAKey
	copy(key[:], in)
	return key
}

// goldenIDEA encrypts every whole plaintext block.
func goldenIDEA(in, want []byte) {
	ek := ref.ExpandIDEAKey(ideaKey(in))
	plain := in[len(repro.IDEAKey{}):]
	whole := len(plain) &^ (ref.IDEABlockBytes - 1)
	ref.IDEAApplyTo(&ek, want, plain[:whole])
	clear(want[whole:])
}

// goldenADPCM decodes two little-endian 16-bit samples per packed byte,
// high nibble first.
func goldenADPCM(packed, want []byte) {
	var st ref.ADPCMState
	for i, b := range packed {
		binary.LittleEndian.PutUint16(want[4*i:], uint16(ref.ADPCMDecodeNibble(&st, b>>4)))
		binary.LittleEndian.PutUint16(want[4*i+2:], uint16(ref.ADPCMDecodeNibble(&st, b&0xf)))
	}
}

// goldenVecAdd sums the operands' whole 32-bit words.
func goldenVecAdd(in, want []byte) {
	size := len(want)
	av, bv := in[:size], in[size:]
	whole := size &^ 3
	for i := 0; i < whole; i += 4 {
		s := binary.LittleEndian.Uint32(av[i:]) + binary.LittleEndian.Uint32(bv[i:])
		binary.LittleEndian.PutUint32(want[i:], s)
	}
	clear(want[whole:])
}
