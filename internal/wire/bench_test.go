package wire

import (
	"testing"

	"byzcons/internal/gf"
)

// BenchmarkFrameAppend measures encoding a typical matching-stage frame (one
// symbol-word payload), the per-peer per-step hot path of the networked
// runtime.
func BenchmarkFrameAppend(b *testing.B) {
	f := &Frame{
		Kind:     StepExchange,
		Instance: 3,
		StepSum:  0xBEEF,
		Payloads: []any{[]gf.Sym{12, 200, 7, 91, 33, 2, 250, 16}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := f.Append(nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = buf
	}
}

// BenchmarkFrameRoundTrip measures encode+decode of the same frame, the
// full per-frame codec cost on the receive path.
func BenchmarkFrameRoundTrip(b *testing.B) {
	f := &Frame{
		Kind:     StepSync,
		Instance: 0,
		StepSum:  0x1234,
		Payloads: []any{[]bool{true, false, true, true, false}},
	}
	enc, err := f.Append(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}
