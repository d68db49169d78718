// Package bitstream defines the configuration bit-stream container consumed
// by the FPGA_LOAD service and the registry that maps a validated bit-stream
// to an executable coprocessor model.
//
// On the real Excalibur, FPGA_LOAD receives a pointer to an SOF-style
// configuration image for the PLD. In the simulation the payload is opaque
// configuration data; what matters — and what this package reproduces — is
// the loader contract: a device-targeted, integrity-checked image whose
// identity selects the coprocessor, plus a size from which configuration
// time is derived.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a bit-stream image ("PLDB").
const Magic = 0x504c4442

// FormatVersion is the container version written by Build.
const FormatVersion = 1

// Errors returned by Parse and the registry.
var (
	ErrBadMagic     = errors.New("bitstream: bad magic")
	ErrBadVersion   = errors.New("bitstream: unsupported container version")
	ErrCorrupt      = errors.New("bitstream: CRC mismatch")
	ErrTruncated    = errors.New("bitstream: truncated image")
	ErrWrongDevice  = errors.New("bitstream: image targets a different device")
	ErrUnknownCore  = errors.New("bitstream: no registered coprocessor for core name")
	ErrBadParameter = errors.New("bitstream: invalid build parameter")
)

// Header describes a parsed bit-stream image.
type Header struct {
	Version   uint16
	Device    string // target device, e.g. "EPXA1"
	Core      string // coprocessor identity, e.g. "adpcmdec"
	CoreClock int64  // requested coprocessor clock, Hz
	IMUClock  int64  // requested IMU/memory clock, Hz
	LEs       uint32 // logic elements consumed (resource report)
	Payload   []byte // opaque configuration frames
}

const fixedHeaderBytes = 4 + 2 + 2 + 2 + 8 + 8 + 4 + 4 // fixed fields before the names

// Build serialises a bit-stream image.
//
// Layout (little-endian):
//
//	u32 magic, u16 version, u16 deviceLen, u16 coreLen,
//	i64 coreClock, i64 imuClock, u32 LEs, u32 payloadLen,
//	device, core, u32 headerCRC, payload, u32 payloadCRC
//
// The header CRC covers the fixed fields and both name strings, so any
// single-bit corruption anywhere in the image is detected.
func Build(h Header) ([]byte, error) {
	if h.Device == "" || h.Core == "" {
		return nil, fmt.Errorf("%w: empty device or core name", ErrBadParameter)
	}
	if h.CoreClock <= 0 || h.IMUClock <= 0 {
		return nil, fmt.Errorf("%w: clocks must be positive", ErrBadParameter)
	}
	if len(h.Device) > 0xffff || len(h.Core) > 0xffff {
		return nil, fmt.Errorf("%w: name too long", ErrBadParameter)
	}
	buf := make([]byte, 0, fixedHeaderBytes+len(h.Device)+len(h.Core)+len(h.Payload)+4)
	var scratch [8]byte

	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		buf = append(buf, scratch[:2]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		buf = append(buf, scratch[:8]...)
	}

	put32(Magic)
	put16(FormatVersion)
	put16(uint16(len(h.Device)))
	put16(uint16(len(h.Core)))
	put64(uint64(h.CoreClock))
	put64(uint64(h.IMUClock))
	put32(h.LEs)
	put32(uint32(len(h.Payload)))
	buf = append(buf, h.Device...)
	buf = append(buf, h.Core...)
	put32(crc32.ChecksumIEEE(buf)) // header CRC over fixed fields + names
	buf = append(buf, h.Payload...)
	put32(crc32.ChecksumIEEE(h.Payload))
	return buf, nil
}

// Parse validates and decodes an image. The returned Payload aliases img
// rather than copying it.
func Parse(img []byte) (Header, error) {
	var h Header
	if len(img) < fixedHeaderBytes {
		return h, ErrTruncated
	}
	if binary.LittleEndian.Uint32(img[0:]) != Magic {
		return h, ErrBadMagic
	}
	h.Version = binary.LittleEndian.Uint16(img[4:])
	if h.Version != FormatVersion {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	devLen := int(binary.LittleEndian.Uint16(img[6:]))
	coreLen := int(binary.LittleEndian.Uint16(img[8:]))
	h.CoreClock = int64(binary.LittleEndian.Uint64(img[10:]))
	h.IMUClock = int64(binary.LittleEndian.Uint64(img[18:]))
	h.LEs = binary.LittleEndian.Uint32(img[26:])
	payLen := int(binary.LittleEndian.Uint32(img[30:]))

	namesEnd := fixedHeaderBytes + devLen + coreLen
	if len(img) < namesEnd+4 {
		return h, ErrTruncated
	}
	wantHdrCRC := binary.LittleEndian.Uint32(img[namesEnd:])
	if crc32.ChecksumIEEE(img[:namesEnd]) != wantHdrCRC {
		return h, fmt.Errorf("%w: header", ErrCorrupt)
	}
	h.Device = string(img[fixedHeaderBytes : fixedHeaderBytes+devLen])
	h.Core = string(img[fixedHeaderBytes+devLen : namesEnd])

	payStart := namesEnd + 4
	if len(img) < payStart+payLen+4 {
		return h, ErrTruncated
	}
	// Capped so an append cannot write into the trailing CRC: images are
	// immutable once built, and nothing mutates a parsed payload.
	h.Payload = img[payStart : payStart+payLen : payStart+payLen]
	wantPayCRC := binary.LittleEndian.Uint32(img[payStart+payLen:])
	if crc32.ChecksumIEEE(h.Payload) != wantPayCRC {
		return h, fmt.Errorf("%w: payload", ErrCorrupt)
	}
	return h, nil
}

// ConfigCycles returns the number of configuration-clock cycles needed to
// shift the image into the PLD (one byte per cycle, matching passive-serial
// configuration).
func ConfigCycles(img []byte) int64 { return int64(len(img)) }
