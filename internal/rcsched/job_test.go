package rcsched

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/platform"
)

// touchedKernel returns the kernel of a fresh EPXA4 board, with the image
// of application app on it, whose user memory for the next jobs
// placements of size-byte jobs has already been written: placements into
// it take no first-touch page from the memory model, so what they
// allocate is the job-data layer's own.
func touchedKernel(tb testing.TB, app string, size, jobs int) (*kernel.Kernel, *apps.Image) {
	tb.Helper()
	spec, _ := platform.SpecByName("EPXA4")
	board, err := platform.NewBoard(spec)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := apps.Images(spec.Name)
	if err != nil {
		tb.Fatal(err)
	}
	a := table[app]
	n := 0
	for i := range a.Objects {
		n += (a.Bytes(i, size) + 7) &^ 7 // Alloc's word padding
	}
	k := board.Kern
	base, err := k.Alloc(8)
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.WriteUser(base, make([]byte, jobs*n)); err != nil {
		tb.Fatal(err)
	}
	return k, a
}

// TestWorkspaceReseed pins the per-job reseed: a workspace that drew
// another job's input first draws for a job exactly the bytes a fresh
// workspace does, two seeds draw different inputs, and once the workspace
// is warm at the largest size a placement allocates nothing.
func TestWorkspaceReseed(t *testing.T) {
	const runs = 20
	for _, app := range []string{"idea", "adpcm", "vecadd"} {
		t.Run(app, func(t *testing.T) {
			k, a := touchedKernel(t, app, 4096, runs+8) // with room for the draws before
			draw := func(ws *workspace, j Job) ([]byte, prepared) {
				t.Helper()
				var p prepared
				j.App = app
				if err := ws.place(k, a, &j, &p); err != nil {
					t.Fatal(err)
				}
				return bytes.Clone(ws.in), p
			}

			fresh, pf := draw(newWorkspace(), Job{Size: 2048, Seed: 4242})
			used := newWorkspace()
			draw(used, Job{Size: 4096, Seed: 7})
			again, pu := draw(used, Job{Size: 2048, Seed: 4242})
			if !bytes.Equal(again, fresh) || pu.crc != pf.crc || pu.params != pf.params || pu.key != pf.key {
				t.Fatal("a workspace that drew another job first draws different input for the same job")
			}
			if other, _ := draw(newWorkspace(), Job{Size: 2048, Seed: 4243}); bytes.Equal(other, fresh) {
				t.Fatal("seeds 4242 and 4243 draw the same input")
			}

			ws := newWorkspace()
			j := Job{App: app, Size: 4096, Seed: 1}
			var p prepared
			if err := ws.place(k, a, &j, &p); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(runs, func() {
				j.Seed++
				if err := ws.place(k, a, &j, &p); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("place on a warm workspace allocates %.0f objects, want 0", n)
			}
		})
	}
}

// BenchmarkJobData measures the job-data layer on its own: drawing a job's
// input and placing its process image (place), then reading the input back
// and computing the expected output (golden), per application at 1, 2 and
// 4 KB. The board is replaced, with its user memory written in advance,
// outside the timer every batch of jobs; B/op and allocs/op are the
// workspace's own.
func BenchmarkJobData(b *testing.B) {
	const batch = 64
	for _, app := range []string{"idea", "adpcm", "vecadd"} {
		for _, size := range []int{1 << 10, 2 << 10, 4 << 10} {
			b.Run(fmt.Sprintf("%s/%dKB", app, size>>10), func(b *testing.B) {
				var (
					k *kernel.Kernel
					a *apps.Image
					p prepared
				)
				ws := newWorkspace()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%batch == 0 {
						b.StopTimer()
						k, a = touchedKernel(b, app, size, batch)
						b.StartTimer()
					}
					j := Job{ID: i, App: app, Size: size, Seed: int64(i)}
					if err := ws.place(k, a, &j, &p); err != nil {
						b.Fatal(err)
					}
					if _, err := ws.golden(k, a, &j, &p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
