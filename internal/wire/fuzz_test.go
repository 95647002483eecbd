package wire

import (
	"bytes"
	"reflect"
	"testing"

	"byzcons/internal/diag"
	"byzcons/internal/gf"
)

// FuzzWireRoundTrip exercises the decoder with arbitrary bytes — the
// situation of every networked node, since a Byzantine peer controls the
// full content of received frames. Properties:
//
//   - DecodeFrame never panics, whatever the input;
//   - a kind byte with a reserved bit set is rejected by DecodeFrame and
//     DecodeFrameHeader alike;
//   - if the input decodes, re-encoding the decoded frame and decoding
//     again yields an identical frame (decode∘encode is the identity on
//     decoded values), so malformed-but-accepted inputs cannot smuggle
//     state that survives one hop but not the next.
//
// Structured seeds cover every payload kind.
func FuzzWireRoundTrip(f *testing.F) {
	seed := func(fr *Frame) {
		enc, err := fr.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	g := diag.NewComplete(7)
	g.RemoveEdge(2, 4)
	g.Isolate(6)
	seed(&Frame{Kind: StepExchange, Instance: 0, StepSum: StepSum("g0/match.sym"),
		Payloads: []any{[]gf.Sym{1, 2, 3, 65535}}})
	// Reserved kind-byte bits: well-formed frames whose kind byte carries what
	// used to be a stream tag (inline, and the overflow marker with its
	// trailing uvarint). They must not decode — in particular not as the
	// untagged frame with the same remaining bytes.
	reserved := func(fr *Frame, tag byte, extra ...byte) {
		enc, err := fr.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		enc[0] |= tag << 2
		f.Add(append(enc, extra...))
	}
	reserved(&Frame{Kind: StepExchange, Instance: 0, StepSum: StepSum("g2/match.sym"),
		Payloads: []any{[]gf.Sym{9, 8, 7}}}, 3)
	reserved(&Frame{Kind: StepSync, Instance: 1, StepSum: StepSum("g2/match.sym"),
		Payloads: []any{[]bool{true, true, false}}}, 63, 0x80, 0x80, 0x40)
	reserved(&Frame{Kind: StepExchange, Instance: 2, StepSum: StepSum("g1/match.M/eig.r2"),
		Payloads: []any{[]bool{true, false, true, true, false, true, false, false, true}}}, 7)
	seed(&Frame{Kind: StepSync, Instance: 1, StepSum: StepSum("g2/check.det"),
		Payloads: []any{[]bool{}}})
	seed(&Frame{Kind: StepSync, Instance: 0, StepSum: StepSum("mvb/send"),
		Payloads: []any{[]byte("a batched client value frame")}})
	seed(&Frame{Kind: StepSync, Instance: 0, StepSum: StepSum("verify"),
		Payloads: []any{g, int64(-7), nil}})
	seed(&Frame{Kind: StepExchange, Instance: 0, StepSum: 0, Payloads: nil})
	// Hand-corrupted headers.
	f.Add([]byte{})
	f.Add([]byte{byte(StepExchange)})
	f.Add([]byte{byte(StepSync), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{byte(StepExchange), 0, 0, 0, 0, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data) // must not panic
		if len(data) > 0 && data[0]>>2 != 0 {
			if err == nil {
				t.Fatalf("kind byte %#x with reserved bits set decoded", data[0])
			}
			if _, hErr := DecodeFrameHeader(data); hErr == nil {
				t.Fatalf("kind byte %#x with reserved bits set passed the header decoder", data[0])
			}
		}
		if err != nil {
			return
		}
		enc, err := fr.Append(nil)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// Graphs carry unexported state; compare them via their canonical
		// encodings and everything else structurally.
		if len(fr.Payloads) != len(fr2.Payloads) {
			t.Fatalf("payload count changed: %d -> %d", len(fr.Payloads), len(fr2.Payloads))
		}
		for i := range fr.Payloads {
			a, b := fr.Payloads[i], fr2.Payloads[i]
			if ga, ok := a.(*diag.Graph); ok {
				gb, ok := b.(*diag.Graph)
				if !ok || !ga.Equal(gb) {
					t.Fatalf("graph payload %d changed", i)
				}
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("payload %d changed: %#v -> %#v", i, a, b)
			}
		}
		enc2, err := fr2.Append(nil)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable (%v)", err)
		}
	})
}
