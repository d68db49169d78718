package bitstream

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/copro"
)

// Factory builds a fresh coprocessor model instance for a parsed header:
// the sequencer running the core's Program.
type Factory func(h Header) (*copro.Seq, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// RegisterCore installs a factory for the given core name. Coprocessor
// packages call this from init; registering the same name twice panics, as
// it indicates two models claiming one identity.
func RegisterCore(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || f == nil {
		panic("bitstream: RegisterCore with empty name or nil factory")
	}
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("bitstream: core %q registered twice", name))
	}
	factories[name] = f
}

// Instantiate parses img, checks it targets device, and builds the
// registered coprocessor model.
func Instantiate(img []byte, device string) (Header, *copro.Seq, error) {
	h, err := Parse(img)
	if err != nil {
		return h, nil, err
	}
	if h.Device != device {
		return h, nil, fmt.Errorf("%w: image for %q, device is %q", ErrWrongDevice, h.Device, device)
	}
	regMu.RLock()
	f, ok := factories[h.Core]
	regMu.RUnlock()
	if !ok {
		return h, nil, fmt.Errorf("%w: %q", ErrUnknownCore, h.Core)
	}
	core, err := f(h)
	if err != nil {
		return h, nil, err
	}
	return h, core, nil
}

// RegisteredCores lists the known core names, sorted (for tooling output).
func RegisteredCores() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
