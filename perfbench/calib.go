package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/json"
	"slices"
	"strconv"
)

// probeRefMs is the calibration probe's host time on the reference host:
// the median over an uncontended stretch on a 2-vCPU Xeon VM. Host times
// are reported scaled by probeRefMs over the probe time measured next to
// them, i.e. in milliseconds of that reference host.
const probeRefMs = 2.0

// probe is a fixed host-speed calibration workload: JSON encoding and
// decoding, DEFLATE, sorting and SHA-256 over constant data, about 2 ms of
// general-purpose Go. A shared host's speed drifts by up to 1.6x over
// stretches of seconds to minutes (other tenants); the probe slows with it
// in step with the simulator, while no change to the repository can make
// it faster or slower. Run next to each op and set-up, it turns their host
// times into reference-host times that hold still while the host drifts.
type probe struct {
	recs    []probeRec
	data    []byte
	ints    []int
	scratch []int
	out     bytes.Buffer
	zw      *flate.Writer
	sink    int
}

type probeRec struct {
	ID    int               `json:"id"`
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]string `json:"attrs"`
}

func newProbe() *probe {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	p := &probe{recs: make([]probeRec, 200), data: make([]byte, 32<<10), ints: make([]int, 5000)}
	for i := range p.recs {
		p.recs[i] = probeRec{
			ID:    i,
			Name:  "rec" + strconv.FormatUint(next(), 36),
			Vals:  []float64{float64(next()%1000) / 7, float64(next()%1000) / 3, float64(i)},
			Attrs: map[string]string{"kind": "probe", "index": strconv.Itoa(i)},
		}
	}
	for i := range p.data {
		p.data[i] = byte(next() % 16)
	}
	for i := range p.ints {
		p.ints[i] = int(next() >> 1)
	}
	p.scratch = make([]int, len(p.ints))
	p.zw, _ = flate.NewWriter(&p.out, flate.DefaultCompression) // only an invalid level errors
	return p
}

// scale runs the probe once and returns the reference-host scale factor for
// host times measured now: probeRefMs over the probe's host time.
func (p *probe) scale() float64 {
	t0 := now()
	data, _ := json.Marshal(p.recs) // constant plain data always encodes
	var back []probeRec
	_ = json.Unmarshal(data, &back) // decodes what it just encoded
	p.out.Reset()
	p.zw.Reset(&p.out)
	_, _ = p.zw.Write(p.data) // writes to a bytes.Buffer cannot fail
	_ = p.zw.Close()
	copy(p.scratch, p.ints)
	slices.Sort(p.scratch)
	sum := sha256.Sum256(p.data)
	p.sink += len(back) + p.out.Len() + p.scratch[0] + int(sum[0])
	return probeRefMs / ms(now()-t0)
}
