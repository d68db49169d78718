package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/exp"
	"repro/internal/sim"
)

// TestRunMatchesExperiments holds every single run vimsim executes to the
// experiments' own run of the same cell: both must succeed (each checks
// its output against the golden model) and their reports must be deeply
// equal. The hand-chunked ADPCM run splits 8 KB into several chunks on the
// EPXA1 and carries the decoder state across them. vimsim's vecadd -size
// is bytes per vector, as the experiments' is.
func TestRunMatchesExperiments(t *testing.T) {
	const seed = 4242
	cases := []struct {
		app, mode string
		size      int
	}{
		{"idea", "vim", 8192}, {"idea", "sw", 8192}, {"idea", "normal", 4096}, {"idea", "chunked", 32768},
		{"adpcm", "vim", 4096}, {"adpcm", "sw", 4096}, {"adpcm", "normal", 2048}, {"adpcm", "chunked", 8192},
		{"vecadd", "vim", 16384}, {"vecadd", "sw", 16384},
	}
	for _, c := range cases {
		t.Run(c.app+"/"+c.mode, func(t *testing.T) {
			o, err := parse(t, "-app", c.app, "-mode", c.mode, "-size", fmt.Sprint(c.size), "-seed", fmt.Sprint(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, _, gotErr := o.run()
			want, wantErr := exp.Run(repro.Config{}, c.app, c.mode, c.size, seed, nil)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("vimsim error %v, the experiments' %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vimsim report differs from the experiments'\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunRejectsSizeWithoutWorkItem holds every single-run mode, and the
// multi-session gang, to one error, not a panic or an empty run, for a
// size that holds no whole work item: negative, zero, or less than one
// IDEA block.
func TestRunRejectsSizeWithoutWorkItem(t *testing.T) {
	for _, mode := range []string{"vim", "sw", "normal", "chunked", "multi"} {
		for _, size := range []int{-8, 0, 4} {
			t.Run(fmt.Sprintf("%s/%d", mode, size), func(t *testing.T) {
				args := []string{"-mode", mode, "-size", fmt.Sprint(size)}
				if mode != "multi" { // the gang runs IDEA and ADPCM
					args = append(args, "-app", "idea")
				}
				o, err := parse(t, args...)
				if err != nil {
					t.Fatal(err)
				}
				_, err = execute(o)
				if err == nil || !strings.Contains(err.Error(), "holds no whole 8-byte work item") {
					t.Fatalf("got error %v, want the no-whole-work-item error", err)
				}
			})
		}
	}
}

// TestVCDWritesSessionSignals runs a traced vim-mode run end to end: the
// written waveform must declare every signal core.TraceSession records, and
// the report must match the untraced run's except for the engine's
// scheduling tallies (a trace disables the idle bulk-skip).
func TestVCDWritesSessionSignals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.vcd")
	args := []string{"-app", "adpcm", "-size", "2048"}
	o, err := parse(t, append(args, "-vcd", path)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := execute(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^\$var wire \d+ \S+ (\S+) \$end$`).FindAllSubmatch(data, -1) {
		got = append(got, string(m[1]))
	}
	want := []string{"clk", "cp_obj", "cp_addr", "cp_access", "cp_wr", "cp_dout",
		"cp_tlbhit", "cp_din", "cp_start", "cp_fin", "irq_pld"}
	if !slices.Equal(got, want) {
		t.Fatalf("VCD declares %v, want the %d session signals %v", got, len(want), want)
	}

	traced, rec, err := o.run()
	if err != nil || rec == nil {
		t.Fatalf("traced run: recorder %v, err %v", rec, err)
	}
	plain, err := parse(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	untraced, _, err := plain.run()
	if err != nil {
		t.Fatal(err)
	}
	traced.Sim, untraced.Sim = sim.Stats{}, sim.Stats{}
	if !reflect.DeepEqual(traced, untraced) {
		t.Fatalf("tracing moved the report\n traced %+v\nuntraced %+v", traced, untraced)
	}
}
