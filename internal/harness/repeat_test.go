package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/copro"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/copro/scriptcp"
	"repro/internal/copro/vecadd"
	"repro/internal/ref"
)

// programOf returns the Program a sequencer runs.
func programOf(s *copro.Seq) copro.Program {
	f := reflect.ValueOf(s).Elem().FieldByName("prog")
	return *(*copro.Program)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestDeclaredRepeats holds every in-tree Program to the repeats it
// declares: over several parameter sets, every unit inside the repeat a
// unit declares (and below Units) must be the described unit with each
// access moved on by its stride — the same kinds, objects, sizes, cycles,
// strides and addresses as the unit's own description.
func TestDeclaredRepeats(t *testing.T) {
	ideaParams := func(blocks uint32) []uint32 {
		keys := ideacp.PackSubkeys(ref.ExpandIDEAKey(ref.IDEAKey{1, 2, 3}))
		return append([]uint32{blocks}, keys[:]...)
	}
	script := func(seed int64, ops int) *copro.Seq {
		objs := []scriptcp.ObjSpec{
			{ID: 0, Size: 3000, Readable: true},
			{ID: 1, Size: 3000, Readable: true, Writable: true, ReadbackSafe: true},
			{ID: 2, Size: 2048, Writable: true},
		}
		s, err := scriptcp.Generate(rand.New(rand.NewSource(seed)), objs, ops)
		if err != nil {
			t.Fatal(err)
		}
		return scriptcp.New(s)
	}
	resume := adpcmdec.StateWord(ref.ADPCMState{Valprev: -300, Index: 40})
	cases := []struct {
		name   string
		core   *copro.Seq
		params [][]uint32
	}{
		{"idea", ideacp.New(), [][]uint32{ideaParams(0), ideaParams(1), ideaParams(2), ideaParams(300)}},
		{"adpcm", adpcmdec.New(), [][]uint32{{1}, {2}, {900}}},
		{"adpcm-resume", adpcmdec.New(), [][]uint32{{1 | adpcmdec.ParamResume, resume}, {513 | adpcmdec.ParamResume, resume}}},
		{"vecadd", vecadd.New(), [][]uint32{{1}, {5}, {1000}}},
		{"scriptcp-seed1", script(1, 200), [][]uint32{{0}}},
		{"scriptcp-seed2", script(2, 50), [][]uint32{{0}}},
		{"mixed", copro.NewSeq(&mixedProg{}), [][]uint32{{1}, {700}}},
		{"strided", copro.NewSeq(&stridedProg{}), [][]uint32{{1}, {4}, {700}, {1000}}},
		{"fold", copro.NewSeq(&foldProg{}), [][]uint32{{1}, {6}, {500}}},
	}
	for _, c := range cases {
		p := programOf(c.core)
		for k, words := range c.params {
			t.Run(fmt.Sprintf("%s/params%d", c.name, k), func(t *testing.T) {
				for i, more := 0, true; more; i++ {
					more = p.Param(i, words[i])
				}
				n := p.Units()
				for i := 0; i < n; i++ {
					var u copro.Unit
					rep := p.Unit(i, &u)
					if rep < 1 {
						t.Fatalf("unit %d declares a repeat of %d", i, rep)
					}
					for j := 1; j < rep && i+j < n; j++ {
						want := u
						for s := 0; s < want.N; s++ {
							want.Steps[s].Addr += uint32(want.Steps[s].Stride) * uint32(j)
						}
						var got copro.Unit
						p.Unit(i+j, &got)
						if got != want {
							t.Fatalf("unit %d, %d into the repeat unit %d declares:\ngot  %+v\nwant %+v", i+j, j, i, got, want)
						}
					}
				}
			})
		}
	}
}
