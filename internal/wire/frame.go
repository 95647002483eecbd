package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
)

// StepKind distinguishes the two barrier primitives on the wire.
type StepKind byte

// Frame kinds.
const (
	StepExchange StepKind = 1 // point-to-point round: payloads addressed to the receiver
	StepSync     StepKind = 2 // all-to-all gather: exactly one contribution payload
)

// MaxFramePayloads bounds the payload count of a decoded frame.
const MaxFramePayloads = 1 << 16

// Frame is one step's bundle from one sender to one receiver: every message
// a processor addresses to a given peer in a given barrier step travels in a
// single frame, so the per-frame header amortizes over the step instead of
// over individual protocol messages. The sender's identity is not part of
// the frame — it is established by the transport (authenticated per-peer
// channels, the paper's model), so a Byzantine peer cannot forge it.
//
// There is deliberately no sequence number: every transport guarantees
// per-peer FIFO order and every step sends exactly one frame per peer, so
// the arrival ordinal within a (peer, instance) queue is the round identity.
// The header carries only what FIFO cannot provide — the barrier kind, the
// instance id for demux, and the step checksum that catches divergence.
// Lock-step consensus traffic is dominated by small frames (single symbols,
// packed bit vectors), so every header byte shows up directly in the
// encoded-bytes-per-protocol-bit ratio.
type Frame struct {
	// Kind is the barrier primitive this frame belongs to.
	Kind StepKind
	// Instance demultiplexes pipelined protocol instances sharing one
	// transport (the engine's batched cycles).
	Instance int
	// StepSum is a checksum of the step label. Both ends derive the label
	// from common state, so a mismatch proves protocol divergence (the
	// networked analogue of the simulator's step-mismatch abort) without
	// spending wire bytes on the label itself.
	StepSum uint16
	// Payloads are the encoded protocol payloads: one per message addressed
	// to the receiver for StepExchange (possibly none), exactly one
	// contribution for StepSync.
	Payloads []any
}

// StepSum folds a step label into the 16-bit checksum carried by frames.
func StepSum(step string) uint16 {
	h := fnv.New32a()
	h.Write([]byte(step))
	s := h.Sum32()
	return uint16(s ^ s>>16)
}

// Append appends the frame's encoding to buf.
func (f *Frame) Append(buf []byte) ([]byte, error) {
	if f.Kind != StepExchange && f.Kind != StepSync {
		return nil, fmt.Errorf("wire: bad frame kind %d", f.Kind)
	}
	if f.Instance < 0 {
		return nil, fmt.Errorf("wire: negative frame instance %d", f.Instance)
	}
	if len(f.Payloads) > MaxFramePayloads {
		return nil, fmt.Errorf("wire: %d payloads exceed the frame limit", len(f.Payloads))
	}
	// The kind byte's upper six bits are reserved and sent as zero.
	buf = append(buf, byte(f.Kind))
	buf = binary.AppendUvarint(buf, uint64(f.Instance))
	buf = append(buf, byte(f.StepSum>>8), byte(f.StepSum))
	buf = binary.AppendUvarint(buf, uint64(len(f.Payloads)))
	var err error
	for _, p := range f.Payloads {
		if buf, err = AppendPayload(buf, p); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// framePool recycles decoded Frame shells (struct plus payload container).
// One frame is decoded per peer per step — the dominant small allocation of
// the networked round hot path — and the consuming round synchronizer returns
// frames via PutFrame once their payload values are extracted.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// PutFrame recycles a decoded frame. The payload values themselves are not
// touched (they escape into protocol messages); only the container is
// reused. Callers must not keep any reference to f.
func PutFrame(f *Frame) {
	for i := range f.Payloads {
		f.Payloads[i] = nil
	}
	f.Payloads = f.Payloads[:0]
	framePool.Put(f)
}

// decodeHeader parses the frame header shared by DecodeFrame and
// DecodeFrameHeader: kind, instance and step checksum. A kind byte with any
// of its six reserved upper bits set is rejected — no conforming sender sets
// them, and masking them off would give one frame several encodings. The
// returned frame comes from the shell pool; decode errors return it before
// surfacing.
func decodeHeader(data []byte) (*Frame, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("wire: empty frame")
	}
	kind := StepKind(data[0])
	if kind != StepExchange && kind != StepSync {
		return nil, nil, fmt.Errorf("wire: bad frame kind byte %#x", data[0])
	}
	f := framePool.Get().(*Frame)
	f.Kind = kind
	f.Payloads = f.Payloads[:0]
	rest := data[1:]
	inst, n := binary.Uvarint(rest)
	if n <= 0 || inst > 1<<31 {
		PutFrame(f)
		return nil, nil, fmt.Errorf("wire: bad frame instance")
	}
	f.Instance = int(inst)
	rest = rest[n:]
	if len(rest) < 2 {
		PutFrame(f)
		return nil, nil, fmt.Errorf("wire: truncated frame header")
	}
	f.StepSum = uint16(rest[0])<<8 | uint16(rest[1])
	return f, rest[2:], nil
}

// DecodeFrame decodes a complete frame. It is strict: truncated input,
// malformed payloads or trailing bytes are errors, and no allocation exceeds
// the input length. It never panics — frames arrive from Byzantine peers.
func DecodeFrame(data []byte) (*Frame, error) {
	f, rest, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > MaxFramePayloads || count > uint64(len(rest)) {
		PutFrame(f)
		return nil, fmt.Errorf("wire: bad frame payload count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		p, r, err := DecodePayload(rest)
		if err != nil {
			PutFrame(f)
			return nil, fmt.Errorf("wire: frame payload %d: %w", i, err)
		}
		f.Payloads = append(f.Payloads, p)
		rest = r
	}
	if len(rest) != 0 {
		PutFrame(f)
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(rest))
	}
	return f, nil
}

// DecodeFrameHeader parses only a frame's header (kind, instance, stepsum),
// ignoring the payload region. The networked runtime uses it to degrade
// gracefully when a Byzantine peer sends a frame whose header is well-formed
// but whose payloads do not decode: the round synchronizer still
// gets its frame (keeping the lock-step structure intact, which a Byzantine
// processor cannot legally break in the synchronous model) while the
// payloads degrade to ⊥ — exactly the simulator's treatment of garbage
// adversarial payloads.
func DecodeFrameHeader(data []byte) (*Frame, error) {
	f, _, err := decodeHeader(data)
	return f, err
}
