package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/exp"
)

// softwareCell is the pinned record of one pure-software run: its timing,
// the CPU model's counters over the run, and the SHA-256 of the bytes it
// wrote.
type softwareCell struct {
	PurePs     float64 `json:"pure_ps"`
	Loads      uint64  `json:"loads"`
	Stores     uint64  `json:"stores"`
	Ops        uint64  `json:"ops"`
	Branches   uint64  `json:"branches"`
	Misses     uint64  `json:"misses"`
	Writebacks uint64  `json:"writebacks"`
	OutSHA256  string  `json:"out_sha256"`
}

// softwareSpec is one pinned software cell. setUp sets the process up exactly
// as the experiment that owns the cell does and returns the run's report
// with its output buffer; expMs returns the owning experiment's own timing
// of the cell in milliseconds, which must agree.
type softwareSpec struct {
	name  string
	setUp func(p *repro.Process) (*repro.Report, repro.Buffer, error)
	expMs func() (float64, error)
}

func softwareSpecs() []softwareSpec {
	var specs []softwareSpec
	for _, n := range []int{4096, 8192, 16384, 32768} {
		seed := int64(900 + n)
		specs = append(specs, softwareSpec{
			name: fmt.Sprintf("idea-sw/%dKB", n/1024),
			setUp: func(p *repro.Process) (*repro.Report, repro.Buffer, error) {
				// exp.Run's set-up of an IDEA sw run.
				in, out, err := alloc2(p, n, n)
				if err != nil {
					return nil, out, err
				}
				rng := rand.New(rand.NewSource(seed))
				var key repro.IDEAKey
				rng.Read(key[:])
				plain := make([]byte, n)
				rng.Read(plain)
				if err := in.Write(plain); err != nil {
					return nil, out, err
				}
				rep, err := p.RunIDEASW(key, in, out)
				return rep, out, err
			},
			expMs: func() (float64, error) {
				rep, err := exp.Run(repro.Config{}, "idea", "sw", n, seed, nil)
				if err != nil {
					return 0, err
				}
				return rep.TotalMs(), nil
			},
		})
	}
	for _, n := range []int{2048, 4096, 8192} {
		seed := int64(800 + n)
		specs = append(specs, softwareSpec{
			name: fmt.Sprintf("adpcm-sw/%dKB", n/1024),
			setUp: func(p *repro.Process) (*repro.Report, repro.Buffer, error) {
				// exp.Run's set-up of an ADPCM sw run.
				in, out, err := alloc2(p, n, 4*n)
				if err != nil {
					return nil, out, err
				}
				packed := make([]byte, n)
				rand.New(rand.NewSource(seed)).Read(packed)
				if err := in.Write(packed); err != nil {
					return nil, out, err
				}
				rep, err := p.RunADPCMDecodeSW(in, out)
				return rep, out, err
			},
			expMs: func() (float64, error) {
				rep, err := exp.Run(repro.Config{}, "adpcm", "sw", n, seed, nil)
				if err != nil {
					return 0, err
				}
				return rep.TotalMs(), nil
			},
		})
	}
	const n = 4096
	specs = append(specs, softwareSpec{
		name: "vecadd-sw/fig3",
		setUp: func(p *repro.Process) (*repro.Report, repro.Buffer, error) {
			// exp.RunFig3's software run.
			a, b, err := alloc2(p, 4*n, 4*n)
			if err != nil {
				return nil, b, err
			}
			c, err := p.Alloc(4 * n)
			if err != nil {
				return nil, c, err
			}
			rng := rand.New(rand.NewSource(303))
			av := make([]byte, 4*n)
			bv := make([]byte, 4*n)
			rng.Read(av)
			rng.Read(bv)
			if err := a.Write(av); err != nil {
				return nil, c, err
			}
			if err := b.Write(bv); err != nil {
				return nil, c, err
			}
			rep, err := p.RunVecAddSW(a, b, c, n)
			return rep, c, err
		},
		expMs: func() (float64, error) {
			res, err := exp.RunFig3()
			if err != nil {
				return 0, err
			}
			return res.Series["sw_ms"], nil
		},
	})
	return specs
}

// alloc2 allocates two buffers of the given sizes, in order.
func alloc2(p *repro.Process, n1, n2 int) (repro.Buffer, repro.Buffer, error) {
	b1, err := p.Alloc(n1)
	if err != nil {
		return b1, b1, err
	}
	b2, err := p.Alloc(n2)
	return b1, b2, err
}

// run runs the cell on a fresh default board and records it; its timing
// must agree with the owning experiment's own run.
func (spec softwareSpec) run() (softwareCell, error) {
	sys, err := repro.NewSystem(repro.Config{})
	if err != nil {
		return softwareCell{}, err
	}
	p, err := sys.NewProcess(spec.name)
	if err != nil {
		return softwareCell{}, err
	}
	rep, out, err := spec.setUp(p)
	if err != nil {
		return softwareCell{}, err
	}
	data, err := out.Read()
	if err != nil {
		return softwareCell{}, err
	}
	ms, err := spec.expMs()
	if err != nil {
		return softwareCell{}, err
	}
	if got := rep.PurePs / 1e9; got != ms {
		return softwareCell{}, fmt.Errorf("%v ms, the experiment's own run %v ms", got, ms)
	}
	sum := sha256.Sum256(data)
	c := sys.Board().CPU
	return softwareCell{
		PurePs:     rep.PurePs,
		Loads:      c.Loads,
		Stores:     c.Stores,
		Ops:        c.Ops,
		Branches:   c.Branches,
		Misses:     c.Misses,
		Writebacks: c.Writebacks,
		OutSHA256:  hex.EncodeToString(sum[:]),
	}, nil
}

// TestGoldenSoftware pins the pure-software baseline runs the figures
// compare against, in testdata/software_cells.json: Figure 9's IDEA cells,
// Figure 8's adpcmdecode cells and Figure 3's vector addition. Besides the
// timing it pins every CPU counter and the output bytes, so a change to the
// timed CPU model or to a software kernel must reproduce the accounting
// access for access, not just the total.
func TestGoldenSoftware(t *testing.T) {
	var specs []goldenSpec[softwareCell]
	for _, spec := range softwareSpecs() {
		specs = append(specs, goldenSpec[softwareCell]{spec.name, spec.run})
	}
	goldenCells(t, pins[softwareCell]{path: "testdata/software_cells.json", specs: specs})
}
