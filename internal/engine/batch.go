package engine

import (
	"encoding/binary"
	"fmt"
)

// Batch framing: a batch of client values is coalesced into one long blob
// that a single consensus run agrees on, amortizing the per-generation
// Broadcast_Single_Bit overhead over all values of the batch (the paper's
// large-L regime). The frame is byte-aligned:
//
//	uvarint   value count
//	per value uvarint byte length, then the raw bytes
//
// After the run decides, the same frame is unpacked to recover the
// per-client decisions.

// packValues serializes a batch of values into one consensus input.
func packValues(values [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, v := range values {
		size += binary.MaxVarintLen64 + len(v)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	for _, v := range values {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// packedBits returns the length in bits of the packed form of values without
// building it.
func packedBits(values [][]byte) int {
	bytes := uvarintLen(uint64(len(values)))
	for _, v := range values {
		bytes += uvarintLen(uint64(len(v))) + len(v)
	}
	return bytes * 8
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// unpackValues parses a packed batch back into its values. It is strict:
// every declared value must be fully present, and no bytes may remain (a
// consensus decision is exactly the packed blob, so any mismatch indicates a
// framing bug, not adversarial input — honest decisions are agreed).
func unpackValues(blob []byte) ([][]byte, error) {
	count, n := binary.Uvarint(blob)
	if n <= 0 {
		return nil, fmt.Errorf("engine: bad batch count header")
	}
	rest := blob[n:]
	if count > uint64(len(rest)) { // each value needs >= 1 header byte
		return nil, fmt.Errorf("engine: batch claims %d values in %d bytes", count, len(rest))
	}
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("engine: bad length header of value %d", i)
		}
		rest = rest[n:]
		if l > uint64(len(rest)) {
			return nil, fmt.Errorf("engine: value %d truncated: need %d bytes, have %d", i, l, len(rest))
		}
		out = append(out, append([]byte(nil), rest[:l]...))
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: %d trailing bytes after batch", len(rest))
	}
	return out, nil
}
