package rcsched

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/vim"
)

// oracleOutput is the expected output of job j computed the way a caller
// outside the scheduler would: a fresh generator on the job's seed and the
// public golden reference functions.
func oracleOutput(t *testing.T, j Job) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(j.Seed))
	switch j.App {
	case "idea":
		var key repro.IDEAKey
		rng.Read(key[:])
		plain := make([]byte, j.Size)
		rng.Read(plain)
		return repro.GoldenIDEAEncrypt(key, plain)
	case "adpcm":
		packed := make([]byte, j.Size)
		rng.Read(packed)
		samples := repro.GoldenADPCMDecode(packed)
		out := make([]byte, 2*len(samples))
		for i, s := range samples {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(s))
		}
		return out
	case "vecadd":
		a := make([]byte, j.Size)
		b := make([]byte, j.Size)
		rng.Read(a)
		rng.Read(b)
		out := make([]byte, j.Size)
		for i := 0; i+4 <= j.Size; i += 4 {
			binary.LittleEndian.PutUint32(out[i:], binary.LittleEndian.Uint32(a[i:])+binary.LittleEndian.Uint32(b[i:]))
		}
		return out
	}
	t.Fatalf("no oracle for app %q", j.App)
	return nil
}

// TestFinishJobVerificationStrength pins the end-of-job check: the golden
// output computed from the input objects read back from user memory
// matches the public reference functions on the job's seed, finishJob
// accepts exactly that output, a single flipped byte anywhere in it is
// reported at its index, and a single flipped byte in any input object
// fails the job before its output is judged.
func TestFinishJobVerificationStrength(t *testing.T) {
	spec, _ := platform.SpecByName("EPXA4")
	for _, app := range []string{"idea", "adpcm", "vecadd"} {
		t.Run(app, func(t *testing.T) {
			board, err := platform.NewBoard(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer board.SDRAM.Store().Release()
			table, err := apps.Images(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			a := table[app]
			ws := newWorkspace()
			// Leave the shared generator mid-stream on another job first:
			// reseeding must restart the job's stream from scratch.
			if err := ws.place(board.Kern, a, &Job{App: app, Size: 1000, Seed: 1}, &prepared{}); err != nil {
				t.Fatal(err)
			}

			job := Job{ID: 5, App: app, Size: 2048, Seed: 4242}
			p := &prepared{}
			if err := ws.place(board.Kern, a, &job, p); err != nil {
				t.Fatal(err)
			}
			// Draw another job's inputs over the scratch buffer: the golden
			// output must come from user memory, not from what ws holds.
			if err := ws.place(board.Kern, a, &Job{App: app, Size: 2048, Seed: 2}, &prepared{}); err != nil {
				t.Fatal(err)
			}
			want := oracleOutput(t, job)
			got, err := ws.golden(board.Kern, a, &job, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("golden output read back from user memory (%d B) differs from the reference functions (%d B)", len(got), len(want))
			}
			out := p.base[a.Out()]
			if err := board.Kern.WriteUser(out, want); err != nil {
				t.Fatal(err)
			}

			g, err := core.NewGang(board, vim.StaticPartition, DefaultShellHz, 1)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := g.AttachMember(0, a.Img, board.DP.Pages(), vim.Config{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			rep := &Report{Jobs: make([]JobReport, 1), SlotBusyPs: make([]float64, 1), SlotOccupancy: make([]SlotShare, 1)}
			finish := func() error {
				return finishJob(rep, board.Kern, ws, a, &job, p, &slotRun{}, mb, 0)
			}
			if err := finish(); err != nil {
				t.Fatalf("correct output rejected: %v", err)
			}

			store := board.SDRAM.Store()
			// flip xors one byte at addr, runs finishJob, checks that its
			// error names the job and contains msg, and restores the byte.
			flip := func(addr uint32, what, msg string) {
				t.Helper()
				b, err := store.Byte(addr)
				if err != nil {
					t.Fatal(err)
				}
				if err := store.SetByte(addr, b^0x5a); err != nil {
					t.Fatal(err)
				}
				err = finish()
				if err == nil || !strings.Contains(err.Error(), "job 5 ") || !strings.Contains(err.Error(), msg) {
					t.Fatalf("%s flipped: finishJob err = %v, want one naming job 5 and %q", what, err, msg)
				}
				if err := store.SetByte(addr, b); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range []int{0, len(want) / 2, len(want) - 1} {
				flip(out+uint32(n), fmt.Sprintf("output byte %d", n), fmt.Sprintf("diverges from the golden algorithm at byte %d", n))
			}
			for i := range a.Objects {
				if a.Objects[i].Dir == vim.Out {
					continue
				}
				for _, n := range []int{0, a.Bytes(i, job.Size) - 1} {
					flip(p.base[i]+uint32(n), fmt.Sprintf("input object %d byte %d", i, n), "input objects changed in user memory")
				}
			}
			if err := finish(); err != nil {
				t.Fatalf("restored memory rejected: %v", err)
			}
		})
	}
}
