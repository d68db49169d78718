package baseline

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/vim"
)

func ideaImage(t *testing.T) []byte {
	t.Helper()
	img, err := bitstream.Build(bitstream.Header{
		Device:    "EPXA1",
		Core:      ideacp.CoreName,
		CoreClock: 6_000_000,
		IMUClock:  24_000_000,
		LEs:       3900,
		Payload:   []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func adpcmImage(t *testing.T) []byte {
	t.Helper()
	img, err := bitstream.Build(bitstream.Header{
		Device:    "EPXA1",
		Core:      adpcmdec.CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       2100,
		Payload:   []byte{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func ideaStreams(in []byte) []*Stream {
	return []*Stream{
		{ID: ideacp.ObjIn, Dir: vim.In, ItemBytes: 8, Data: in},
		{ID: ideacp.ObjOut, Dir: vim.Out, ItemBytes: 8},
	}
}

func ideaParams(key ref.IDEAKey) ParamsFunc {
	ek := ref.ExpandIDEAKey(key)
	packed := ideacp.PackSubkeys(ek)
	return func(_, items int) []uint32 {
		p := []uint32{uint32(items)}
		for _, w := range packed {
			p = append(p, w)
		}
		return p
	}
}

func TestIDEASingleShotSmallSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var key ref.IDEAKey
	rng.Read(key[:])
	for _, n := range []int{4096, 8192} {
		in := make([]byte, n)
		rng.Read(in)
		r, err := NewRunner(platform.EPXA1(), ideaImage(t))
		if err != nil {
			t.Fatal(err)
		}
		streams := ideaStreams(in)
		rep, err := r.RunSingleShot(n/8, streams, ideaParams(key))
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		ek := ref.ExpandIDEAKey(key)
		want := ref.IDEAApply(&ek, in)
		if !bytes.Equal(streams[1].Out, want) {
			t.Fatalf("%d bytes: ciphertext mismatch", n)
		}
		if rep.IMU.Faults != 0 {
			t.Fatalf("%d bytes: static mapping faulted %d times", n, rep.IMU.Faults)
		}
	}
}

func TestIDEASingleShotExceedsMemoryAt16KB(t *testing.T) {
	// Figure 9: the normal coprocessor cannot run 16 KB or 32 KB on the
	// EPXA1 — the data exceeds the dual-port RAM.
	for _, n := range []int{16384, 32768} {
		in := make([]byte, n)
		r, err := NewRunner(platform.EPXA1(), ideaImage(t))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.RunSingleShot(n/8, ideaStreams(in), ideaParams(ref.IDEAKey{}))
		if !errors.Is(err, ErrExceedsMemory) {
			t.Fatalf("%d bytes: err = %v, want ErrExceedsMemory", n, err)
		}
	}
}

func TestIDEAChunkedHandlesLargeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var key ref.IDEAKey
	rng.Read(key[:])
	n := 32768
	in := make([]byte, n)
	rng.Read(in)
	r, err := NewRunner(platform.EPXA1(), ideaImage(t))
	if err != nil {
		t.Fatal(err)
	}
	streams := ideaStreams(in)
	rep, err := r.RunChunked(n/8, streams, ideaParams(key))
	if err != nil {
		t.Fatal(err)
	}
	ek := ref.ExpandIDEAKey(key)
	want := ref.IDEAApply(&ek, in)
	if !bytes.Equal(streams[1].Out, want) {
		t.Fatal("chunked ciphertext mismatch")
	}
	if rep.SWDPPs <= 0 {
		t.Fatal("chunked run charged no copy time")
	}
}

func TestADPCMChunkedMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 8192
	in := make([]byte, n)
	rng.Read(in)
	r, err := NewRunner(platform.EPXA1(), adpcmImage(t))
	if err != nil {
		t.Fatal(err)
	}
	streams := []*Stream{
		{ID: adpcmdec.ObjIn, Dir: vim.In, ItemBytes: 1, Data: in},
		{ID: adpcmdec.ObjOut, Dir: vim.Out, ItemBytes: 4},
	}
	// Every chunk after the first resumes from the codec state the
	// previous chunks left, computed here by decoding them in software.
	chunks := 0
	_, err = r.RunChunked(n, streams, func(done, items int) []uint32 {
		chunks++
		if done == 0 {
			return []uint32{uint32(items)}
		}
		var st ref.ADPCMState
		for _, b := range in[:done] {
			ref.ADPCMDecodeNibble(&st, b>>4)
			ref.ADPCMDecodeNibble(&st, b&0xf)
		}
		return []uint32{uint32(items) | adpcmdec.ParamResume, adpcmdec.StateWord(st)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("%d B ran in %d chunk(s), want several", n, chunks)
	}
	var want []byte
	for _, s := range ref.ADPCMDecode(ref.ADPCMState{}, in) {
		want = append(want, byte(s), byte(uint16(s)>>8))
	}
	if !bytes.Equal(streams[1].Out, want) {
		t.Fatal("chunked ADPCM output mismatch")
	}
}

func TestChunkedNotCheaperThanSingleShot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var key ref.IDEAKey
	rng.Read(key[:])
	n := 8192
	in := make([]byte, n)
	rng.Read(in)

	r1, _ := NewRunner(platform.EPXA1(), ideaImage(t))
	single, err := r1.RunSingleShot(n/8, ideaStreams(in), ideaParams(key))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRunner(platform.EPXA1(), ideaImage(t))
	chunked, err := r2.RunChunked(n/8, ideaStreams(in), ideaParams(key))
	if err != nil {
		t.Fatal(err)
	}
	if chunked.TotalPs() < single.TotalPs() {
		t.Fatalf("chunked (%.0f ps) cheaper than single shot (%.0f ps)",
			chunked.TotalPs(), single.TotalPs())
	}
}
