package bitstream

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/copro"
)

func sampleHeader() Header {
	return Header{
		Device:    "EPXA1",
		Core:      "vecadd",
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       1234,
		Payload:   []byte{0xde, 0xad, 0xbe, 0xef, 0x42},
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	img, err := Build(sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleHeader()
	if h.Device != want.Device || h.Core != want.Core ||
		h.CoreClock != want.CoreClock || h.IMUClock != want.IMUClock || h.LEs != want.LEs {
		t.Fatalf("header mismatch: %+v", h)
	}
	if string(h.Payload) != string(want.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	img, _ := Build(sampleHeader())
	img[0] ^= 0xff
	if _, err := Parse(img); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseRejectsTruncation(t *testing.T) {
	img, _ := Build(sampleHeader())
	for _, n := range []int{0, 10, len(img) - 1} {
		if _, err := Parse(img[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
}

func TestQuickSingleBitCorruptionDetected(t *testing.T) {
	img, _ := Build(sampleHeader())
	f := func(pos uint16, bit uint8) bool {
		p := int(pos) % len(img)
		mut := append([]byte(nil), img...)
		mut[p] ^= 1 << (bit % 8)
		_, err := Parse(mut)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildValidation(t *testing.T) {
	h := sampleHeader()
	h.Device = ""
	if _, err := Build(h); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("err = %v, want ErrBadParameter", err)
	}
	h = sampleHeader()
	h.CoreClock = 0
	if _, err := Build(h); !errors.Is(err, ErrBadParameter) {
		t.Fatalf("err = %v, want ErrBadParameter", err)
	}
}

func TestRegistry(t *testing.T) {
	want := copro.NewSeq(nil)
	RegisterCore("test-core-registry", func(h Header) (*copro.Seq, error) { return want, nil })
	h := sampleHeader()
	h.Core = "test-core-registry"
	img, _ := Build(h)

	_, core, err := Instantiate(img, "EPXA1")
	if err != nil {
		t.Fatal(err)
	}
	if core != want {
		t.Fatalf("factory result = %p, want %p", core, want)
	}
	if _, _, err := Instantiate(img, "EPXA4"); !errors.Is(err, ErrWrongDevice) {
		t.Fatalf("err = %v, want ErrWrongDevice", err)
	}
	h.Core = "nobody-home"
	img2, _ := Build(h)
	if _, _, err := Instantiate(img2, "EPXA1"); !errors.Is(err, ErrUnknownCore) {
		t.Fatalf("err = %v, want ErrUnknownCore", err)
	}
	found := false
	for _, n := range RegisteredCores() {
		if n == "test-core-registry" {
			found = true
		}
	}
	if !found {
		t.Fatal("RegisteredCores missing test core")
	}
}

func TestConfigCycles(t *testing.T) {
	img, _ := Build(sampleHeader())
	if ConfigCycles(img) != int64(len(img)) {
		t.Fatal("ConfigCycles != image length")
	}
}
