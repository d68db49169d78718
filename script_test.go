package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/bitstream"
	"repro/internal/copro/scriptcp"
)

// scriptLayout describes the object set for a scripted run.
type scriptLayout struct {
	name string
	objs []scriptcp.ObjSpec
	dirs map[uint8]repro.Direction
}

// layouts returns object sets of increasing dual-port-RAM pressure
// (the EPXA1 has 16 KB = 8 frames).
func layouts() []scriptLayout {
	return []scriptLayout{
		{
			name: "fits", // 3 small objects + param page fit entirely
			objs: []scriptcp.ObjSpec{
				{ID: 0, Size: 2048, Readable: true, ReadbackSafe: true},
				{ID: 1, Size: 2048, Readable: true, Writable: true, ReadbackSafe: true},
				{ID: 2, Size: 2048, Writable: true},
			},
			dirs: map[uint8]repro.Direction{0: repro.In, 1: repro.InOut, 2: repro.Out},
		},
		{
			name: "pressure", // 2x the DP RAM: steady eviction traffic
			objs: []scriptcp.ObjSpec{
				{ID: 0, Size: 8192, Readable: true, ReadbackSafe: true},
				{ID: 1, Size: 16384, Readable: true, Writable: true, ReadbackSafe: true},
				{ID: 2, Size: 8192, Writable: true},
			},
			dirs: map[uint8]repro.Direction{0: repro.In, 1: repro.InOut, 2: repro.Out},
		},
		{
			name: "many-objects", // five objects force cross-object thrash
			objs: []scriptcp.ObjSpec{
				{ID: 0, Size: 4096, Readable: true, ReadbackSafe: true},
				{ID: 1, Size: 4096, Readable: true, ReadbackSafe: true},
				{ID: 2, Size: 8192, Readable: true, Writable: true, ReadbackSafe: true},
				{ID: 3, Size: 4096, Writable: true},
				{ID: 4, Size: 8192, Readable: true, Writable: true, ReadbackSafe: true},
			},
			dirs: map[uint8]repro.Direction{
				0: repro.In, 1: repro.In, 2: repro.InOut, 3: repro.Out, 4: repro.InOut,
			},
		},
	}
}

// runScripted executes one generated script through the full facade under
// cfg and cross-checks every object buffer against the host-side model.
func runScripted(t *testing.T, cfg repro.Config, lay scriptLayout, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	script, err := scriptcp.Generate(rng, lay.objs, ops)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := repro.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewProcess("scripted")
	if err != nil {
		t.Fatal(err)
	}

	// Allocate and initialise buffers; build the model's view.
	bufs := map[uint8]repro.Buffer{}
	model := map[uint8][]byte{}
	for _, o := range lay.objs {
		b, err := p.Alloc(int(o.Size))
		if err != nil {
			t.Fatal(err)
		}
		init := make([]byte, o.Size)
		rng.Read(init)
		if err := b.Write(init); err != nil {
			t.Fatal(err)
		}
		bufs[o.ID] = b
		model[o.ID] = append([]byte(nil), init...)
	}

	img, err := scriptcp.Bitstream(sys.Board().Spec.Name, script)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FPGALoad(img); err != nil {
		t.Fatal(err)
	}
	for _, o := range lay.objs {
		if err := p.FPGAMapObject(int(o.ID), bufs[o.ID], lay.dirs[o.ID]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.FPGAExecute(0)
	if err != nil {
		t.Fatalf("cfg=%+v layout=%s seed=%d: %v", cfg, lay.name, seed, err)
	}

	_, masks, err := scriptcp.Apply(script, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range lay.objs {
		got, err := bufs[o.ID].Read()
		if err != nil {
			t.Fatal(err)
		}
		// In/InOut objects must match in full; for load-elided Out
		// objects only the written bytes are defined (DMA-output
		// contract; see scriptcp.Apply).
		fullCompare := lay.dirs[o.ID] != repro.Out
		if fullCompare && bytes.Equal(got, model[o.ID]) {
			continue
		}
		for i := range got {
			if !fullCompare && !masks[o.ID][i] {
				continue
			}
			if got[i] != model[o.ID][i] {
				t.Fatalf("cfg=%+v layout=%s seed=%d: object %d differs first at %#x: %#x != %#x (faults=%d evictions=%d)",
					cfg, lay.name, seed, o.ID, i, got[i], model[o.ID][i],
					rep.VIM.Faults, rep.VIM.Evictions)
			}
		}
	}
}

// TestScriptedRandomAccessAllPolicies drives random access patterns through
// every replacement policy and checks bit-exact end state — including the
// checksum of every value the coprocessor read, which catches stale or
// misloaded pages that final memory state alone would miss.
func TestScriptedRandomAccessAllPolicies(t *testing.T) {
	for _, pol := range []string{"fifo", "lru", "clock", "random"} {
		for _, lay := range layouts() {
			t.Run(pol+"/"+lay.name, func(t *testing.T) {
				runScripted(t, repro.Config{Policy: pol, Seed: 7}, lay, 100+int64(len(lay.name)), 300)
			})
		}
	}
}

// TestScriptedRandomAccessModes exercises the bounce-buffer, prefetch and
// pipelined-IMU variants under memory pressure.
func TestScriptedRandomAccessModes(t *testing.T) {
	lay := layouts()[1]
	cases := []repro.Config{
		{BounceBuffer: true},
		{PrefetchPages: 2},
		{PipelinedIMU: true},
		{Policy: "lru", BounceBuffer: true, PrefetchPages: 1, PipelinedIMU: true},
	}
	for i, cfg := range cases {
		t.Run(fmt.Sprintf("case%d", i), func(t *testing.T) {
			runScripted(t, cfg, lay, 500+int64(i), 300)
		})
	}
}

// TestScriptedRandomAccessBoards runs the heavy layout on all devices.
func TestScriptedRandomAccessBoards(t *testing.T) {
	for _, board := range []string{"EPXA1", "EPXA4", "EPXA10"} {
		t.Run(board, func(t *testing.T) {
			runScripted(t, repro.Config{Board: board}, layouts()[2], 900, 400)
		})
	}
}

// TestScriptedManySeeds is the randomized sweep: many independent scripts
// under the default configuration.
func TestScriptedManySeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runScripted(t, repro.Config{}, layouts()[seed%3], 1000+seed, 250)
		})
	}
}

// TestFPGALoadRejectsMalformedScript checks that a crafted scriptcp image
// whose op breaks the access contract — a misaligned or odd-sized access —
// fails FPGALoad with an error instead of running and storing wrong data.
func TestFPGALoadRejectsMalformedScript(t *testing.T) {
	for _, op := range []scriptcp.Op{
		{Kind: scriptcp.OpWrite, Obj: 0, Size: 4, Addr: 1, Val: 0xaabbccdd},
		{Kind: scriptcp.OpWrite, Obj: 0, Size: 2, Addr: 7, Val: 0xbeef},
		{Kind: scriptcp.OpWrite, Obj: 0, Size: 3, Addr: 0, Val: 0xaabbccdd},
		{Kind: scriptcp.OpWriteChecksum, Obj: 0, Addr: 2},
	} {
		sys, err := repro.NewSystem(repro.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := sys.NewProcess("crafted")
		if err != nil {
			t.Fatal(err)
		}
		// scriptcp.Bitstream refuses such a script, so craft the image by
		// hand.
		img, err := bitstream.Build(bitstream.Header{
			Device:    sys.Board().Spec.Name,
			Core:      scriptcp.CoreName,
			CoreClock: 40_000_000,
			IMUClock:  40_000_000,
			LEs:       901,
			Payload:   scriptcp.Encode(scriptcp.Script{op}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.FPGALoad(img); err == nil {
			t.Errorf("FPGALoad accepted an image with op %+v", op)
		}
	}
}

func TestScriptCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	script, err := scriptcp.Generate(rng, layouts()[0].objs, 64)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := scriptcp.Decode(scriptcp.Encode(script))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(script) {
		t.Fatalf("decoded %d ops, want %d", len(dec), len(script))
	}
	for i := range script {
		if dec[i] != script[i] {
			t.Fatalf("op %d: %+v != %+v", i, dec[i], script[i])
		}
	}
	if _, err := scriptcp.Decode([]byte{1, 2}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
