package parcel

import (
	"encoding/binary"
	"errors"
	"fmt"

	"nmvgas/internal/gas"
)

// Wire format, little-endian:
//
//	0      magic (1 byte) = 0xA9
//	1      version (1 byte) = 2
//	2..3   action
//	4..11  target GVA
//	12..13 continuation action
//	14..21 continuation GVA
//	22..25 source rank (uint32)
//	26..33 sequence number
//	34..41 op id (world-unique causal span id; survives forwards/resends)
//	42..45 payload length (uint32)
//	46..   payload
//
// The target GVA sits at a fixed offset (4) so in-NIC batch scatter can
// route records without a full decode (netsim.ScatterGVA). Version 2
// added the op id field; v1 encodings are rejected.
const (
	codecMagic   = 0xA9
	codecVersion = 2
	headerSize   = 46
)

// ErrCodec reports a malformed encoded parcel.
var ErrCodec = errors.New("parcel: malformed encoding")

// AppendEncode appends p's wire encoding to dst and returns the extended
// slice; callers reuse buffers on hot paths.
func AppendEncode(dst []byte, p *Parcel) []byte {
	dst = append(dst, codecMagic, codecVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Action))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Target))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.CAction))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.CTarget))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Src))
	dst = binary.LittleEndian.AppendUint64(dst, p.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, p.OpID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Payload)))
	return append(dst, p.Payload...)
}

// Encode returns p's wire encoding.
func Encode(p *Parcel) []byte {
	return AppendEncode(make([]byte, 0, p.WireSize()), p)
}

// Peek reads the header fields a receiver needs before it decides where
// a parcel runs — the action, the originating rank and the op id —
// without building a Parcel. It checks only that the header is present;
// magic, version and payload length are Decode's to validate, and every
// parcel is decoded before it executes.
func Peek(buf []byte) (action ActionID, src int, opID uint64, err error) {
	if len(buf) < headerSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrCodec, len(buf), headerSize)
	}
	return ActionID(binary.LittleEndian.Uint16(buf[2:])), int(binary.LittleEndian.Uint32(buf[22:])),
		binary.LittleEndian.Uint64(buf[34:]), nil
}

// Decode parses one encoded parcel. The returned parcel's payload aliases
// buf.
func Decode(buf []byte) (*Parcel, error) {
	p := new(Parcel)
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses one encoded parcel into p, overwriting every field, so
// a receiver can decode into storage it reuses. p's payload aliases buf
// (nil when the parcel has none). On error p is unspecified.
func DecodeInto(p *Parcel, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrCodec, len(buf), headerSize)
	}
	if buf[0] != codecMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrCodec, buf[0])
	}
	if buf[1] != codecVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCodec, buf[1])
	}
	n := binary.LittleEndian.Uint32(buf[42:])
	if uint64(headerSize)+uint64(n) != uint64(len(buf)) {
		return fmt.Errorf("%w: payload length %d does not match buffer %d", ErrCodec, n, len(buf))
	}
	*p = Parcel{
		Action:  ActionID(binary.LittleEndian.Uint16(buf[2:])),
		Target:  gas.GVA(binary.LittleEndian.Uint64(buf[4:])),
		CAction: ActionID(binary.LittleEndian.Uint16(buf[12:])),
		CTarget: gas.GVA(binary.LittleEndian.Uint64(buf[14:])),
		Src:     int(binary.LittleEndian.Uint32(buf[22:])),
		Seq:     binary.LittleEndian.Uint64(buf[26:]),
		OpID:    binary.LittleEndian.Uint64(buf[34:]),
	}
	if n > 0 {
		p.Payload = buf[headerSize : headerSize+n]
	}
	return nil
}
