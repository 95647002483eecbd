package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"byzcons/internal/diag"
	"byzcons/internal/gf"
)

func roundTrip(t *testing.T, p any) any {
	t.Helper()
	enc, err := AppendPayload(nil, p)
	if err != nil {
		t.Fatalf("encode %T: %v", p, err)
	}
	dec, rest, err := DecodePayload(enc)
	if err != nil {
		t.Fatalf("decode %T: %v", p, err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode %T left %d bytes", p, len(rest))
	}
	return dec
}

func TestPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	for _, p := range []any{
		nil,
		[]bool{},
		[]bool{true},
		[]bool{true, false, true, true, false, false, false, true, true},
		[]gf.Sym{0},
		[]gf.Sym{1, 2, 3, 255},
		[]gf.Sym{65535, 0, 1},
		[]byte{},
		[]byte("batch frame contents"),
		int64(0),
		int64(-12345),
		int64(1) << 60,
	} {
		dec := roundTrip(t, p)
		if !reflect.DeepEqual(dec, p) {
			t.Errorf("round trip %#v -> %#v", p, dec)
		}
	}
}

func TestPlainIntIsUnencodable(t *testing.T) {
	t.Parallel()
	// A plain int would decode as int64 and silently change type across a
	// networked hop while keeping it under the simulator; reject it loudly.
	if _, err := AppendPayload(nil, 42); err == nil {
		t.Error("plain int payload encoded")
	}
}

func TestWordWidthIsMinimal(t *testing.T) {
	t.Parallel()
	small, _ := AppendPayload(nil, []gf.Sym{1, 7, 3})
	large, _ := AppendPayload(nil, []gf.Sym{1, 7, 300})
	if len(small) >= len(large) {
		t.Errorf("3-bit symbols (%d bytes) not smaller than 9-bit symbols (%d bytes)", len(small), len(large))
	}
	// 3 symbols at 3 bits = 9 bits = 2 packed bytes, + kind + count + width.
	if want := 5; len(small) != want {
		t.Errorf("encoded %d bytes, want %d", len(small), want)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	t.Parallel()
	g := diag.NewComplete(7)
	g.RemoveEdge(1, 3)
	g.RemoveEdge(0, 5)
	g.RemoveEdge(2, 1)
	g.Isolate(4)
	dec := roundTrip(t, g).(*diag.Graph)
	if !g.Equal(dec) {
		t.Errorf("graph round trip:\n got %v\nwant %v", dec, g)
	}
}

func TestUnencodablePayloadIsAnError(t *testing.T) {
	t.Parallel()
	if _, err := AppendPayload(nil, struct{ X int }{1}); err == nil {
		t.Error("struct payload encoded")
	}
	if _, err := AppendPayload(nil, 3.14); err == nil {
		t.Error("float payload encoded")
	}
}

func TestDecodeRejectsOversizedDeclarations(t *testing.T) {
	t.Parallel()
	// A bits payload declaring 2^40 entries backed by 1 byte must fail
	// before allocating.
	cases := [][]byte{
		{kindBits, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0xFF},
		{kindBytes, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0xFF},
		{kindWord, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 8, 0xFF},
		{kindGraph, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		// n=4096 with n² declared edges in a 7-byte payload: the edge count
		// must be bounded by the input length before any allocation.
		{kindGraph, 0x80, 0x20, 0x80, 0x80, 0x80, 0x08},
	}
	for _, c := range cases {
		if _, _, err := DecodePayload(c); err == nil {
			t.Errorf("oversized declaration %v decoded", c)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	for _, f := range []*Frame{
		{
			Kind:     StepExchange,
			Instance: 3,
			StepSum:  StepSum("g4/match.sym"),
			Payloads: []any{[]gf.Sym{9, 2}, []bool{true, false}, nil},
		},
		{
			Kind:     StepSync,
			Instance: 0,
			StepSum:  StepSum("g4/check.det"),
			Payloads: []any{[]bool{true}},
		},
	} {
		enc, err := f.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, f) {
			t.Errorf("frame round trip:\n got %#v\nwant %#v", dec, f)
		}
	}
}

// TestFrameRejectsReservedKindBits: the kind byte's upper six bits are
// reserved. A frame that sets any of them must fail both decoders, so the
// router convicts its sender instead of queueing the frame as ordinary
// traffic.
func TestFrameRejectsReservedKindBits(t *testing.T) {
	t.Parallel()
	f := &Frame{Kind: StepSync, Instance: 2, StepSum: StepSum("g0/match.M"), Payloads: []any{[]bool{true}}}
	enc, err := f.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 2; bit < 8; bit++ {
		bad := append([]byte(nil), enc...)
		bad[0] |= 1 << bit
		if _, err := DecodeFrame(bad); err == nil {
			t.Errorf("kind byte %#x decoded", bad[0])
		}
		if _, err := DecodeFrameHeader(bad); err == nil {
			t.Errorf("kind byte %#x passed the header decoder", bad[0])
		}
	}
	if _, err := DecodeFrame(enc); err != nil {
		t.Errorf("the unmodified frame no longer decodes: %v", err)
	}
}

// TestFrameEncodingGolden pins the frame encoding byte for byte: one
// StepExchange and one StepSync frame, against bytes captured at commit
// 12d56fe, when the kind byte's upper bits still carried a stream tag (0 for
// these frames).
func TestFrameEncodingGolden(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		f    *Frame
		want string
	}{
		{&Frame{Kind: StepExchange, Instance: 5, StepSum: StepSum("g3/match.sym"),
			Payloads: []any{[]gf.Sym{1, 2, 250}, nil}}, "010532c2020203080102fa00"},
		{&Frame{Kind: StepSync, Instance: 300, StepSum: StepSum("g0/match.M"),
			Payloads: []any{[]bool{true, false, true, true, false, false, false, true, true}}}, "02ac02ceb1010109b180"},
	} {
		enc, err := tc.f.Append(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(enc); got != tc.want {
			t.Errorf("kind %d frame encodes to %s, want %s", tc.f.Kind, got, tc.want)
		}
	}
}

func TestFrameRejectsTrailingBytes(t *testing.T) {
	t.Parallel()
	f := &Frame{Kind: StepSync, Payloads: []any{[]bool{true}}}
	enc, _ := f.Append(nil)
	if _, err := DecodeFrame(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeFrame(enc[:len(enc)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestStepSumDistinguishesSteps(t *testing.T) {
	t.Parallel()
	if StepSum("g0/match.sym") == StepSum("g1/match.sym") {
		t.Error("adjacent generations collide")
	}
	if StepSum("g0/match.M/eig.r1") == StepSum("g0/match.M/eig.r2") {
		t.Error("adjacent broadcast rounds collide")
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	t.Parallel()
	g := diag.NewComplete(5)
	g.RemoveEdge(0, 2)
	f := &Frame{Kind: StepSync, Instance: 1, Payloads: []any{g, []byte("x")}}
	a, _ := f.Append(nil)
	b, _ := f.Append(nil)
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same frame differ")
	}
}
