package apps

import (
	"testing"

	"repro/internal/ref"
	"repro/internal/vim"
)

// TestObjectLayout pins each application's objects: identifiers,
// directions and per-item sizes, the bytes a run draws, and each input
// object's slice of the drawn input, which aliases it.
func TestObjectLayout(t *testing.T) {
	cases := []struct {
		app       string
		key       int
		dirs      []vim.Direction
		itemBytes []int
	}{
		{"idea", 16, []vim.Direction{vim.In, vim.Out}, []int{ref.IDEABlockBytes, ref.IDEABlockBytes}},
		{"adpcm", 0, []vim.Direction{vim.In, vim.Out}, []int{1, 4}},
		{"vecadd", 0, []vim.Direction{vim.In, vim.In, vim.Out}, []int{4, 4, 4}},
	}
	const size = 64
	for _, c := range cases {
		a, ok := Get(c.app)
		if !ok {
			t.Fatalf("%s missing from the table", c.app)
		}
		if a.Key != c.key || a.Key > MaxKey || len(a.Objects) != len(c.dirs) || len(a.Objects) > MaxObjects || a.Out() != len(c.dirs)-1 {
			t.Fatalf("%s: key %d, %d objects, output %d", c.app, a.Key, len(a.Objects), a.Out())
		}
		in := make([]byte, a.InBytes(size))
		off := a.Key
		for i, o := range a.Objects {
			if int(o.ID) != i || o.Dir != c.dirs[i] || o.ItemBytes != c.itemBytes[i] {
				t.Fatalf("%s object %d = %+v", c.app, i, o)
			}
			if got, want := a.Bytes(i, size), size/c.itemBytes[0]*c.itemBytes[i]; got != want {
				t.Fatalf("%s object %d: %d bytes, want %d", c.app, i, got, want)
			}
			data := a.Input(in, i, size)
			if o.Dir == vim.Out {
				if data != nil {
					t.Fatalf("%s output object %d has input data", c.app, i)
				}
				continue
			}
			if len(data) != a.Bytes(i, size) || &data[0] != &in[off] {
				t.Fatalf("%s object %d does not alias the drawn input at %d", c.app, i, off)
			}
			off += len(data)
		}
		if off != len(in) {
			t.Fatalf("%s draws %d bytes, its inputs use %d", c.app, len(in), off)
		}
		if a.Items(size) != size/c.itemBytes[0] {
			t.Fatalf("%s: %d items in %d bytes", c.app, a.Items(size), size)
		}
	}
}

// TestStreamsLayout pins IDEA's objects: one input and one output, each
// one cipher block per item, with the input aliasing the drawn plaintext.
func TestStreamsLayout(t *testing.T) {
	a, _ := Get("idea")
	if len(a.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(a.Objects))
	}
	if a.Objects[0].Dir != vim.In || a.Objects[1].Dir != vim.Out {
		t.Fatal("object directions wrong")
	}
	if a.Objects[0].ItemBytes != ref.IDEABlockBytes || a.Objects[1].ItemBytes != ref.IDEABlockBytes {
		t.Fatal("item size must be one cipher block")
	}
	in := make([]byte, a.InBytes(64))
	if &a.Input(in, 0, 64)[0] != &in[a.Key] {
		t.Fatal("input object must alias the drawn plaintext")
	}
}

// TestADPCMDescriptors pins ADPCM's 1-byte-in, 4-bytes-out items and its
// item-count parameter.
func TestADPCMDescriptors(t *testing.T) {
	a, _ := Get("adpcm")
	if a.Objects[0].ItemBytes != 1 || a.Objects[1].ItemBytes != 4 {
		t.Fatal("adpcm item sizes must be 1 byte in, 4 bytes out")
	}
	if p := a.Params(make([]byte, 16), 7); len(p) != 1 || p[0] != 7 {
		t.Fatalf("adpcm params = %v", p)
	}
}

// TestParamsShape pins the FPGA_EXECUTE parameters: IDEA passes the block
// count followed by the packed encryption subkeys, the others the item
// count alone.
func TestParamsShape(t *testing.T) {
	idea, _ := Get("idea")
	in := make([]byte, idea.InBytes(800))
	in[0] = 0x42
	p := idea.Params(in, 100)
	if p[0] != 100 {
		t.Fatalf("param 0 = %d, want the item count", p[0])
	}
	if len(p) != 1+ref.IDEASubkeys/2 {
		t.Fatalf("params = %d words, want %d", len(p), 1+ref.IDEASubkeys/2)
	}
	// First subkey is the big-endian first key halfword.
	if uint16(p[1]) != 0x4200 {
		t.Fatalf("subkey 0 = %#x, want 0x4200", uint16(p[1]))
	}
	for _, name := range []string{"adpcm", "vecadd"} {
		a, _ := Get(name)
		if p := a.Params(nil, 7); len(p) != 1 || p[0] != 7 {
			t.Fatalf("%s params = %v", name, p)
		}
	}
}

// TestImagesPerBoard checks a board's resolved table is built once and
// names the core each bitstream configures.
func TestImagesPerBoard(t *testing.T) {
	t1, err := Images("EPXA4")
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := Images("EPXA4")
	if t1["idea"] != t2["idea"] {
		t.Fatal("images rebuilt for the same board")
	}
	for name, want := range map[string]string{"idea": "idea", "adpcm": "adpcmdec", "vecadd": "vecadd"} {
		if got := t1[name].Core; got != want {
			t.Fatalf("%s configures core %q, want %q", name, got, want)
		}
	}
}
