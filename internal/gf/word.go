package gf

// This file is the field's one bulk tier: multiplication over symbol slices
// packed into 64-bit lane words, 8 symbols per word for c <= 8 (byte-packed)
// or 4 symbols per word for c <= 16 (half-word-packed). The scalar log/exp
// operations of gf.go remain the checked reference oracle (FuzzWordVsScalar
// cross-checks every word kernel against the scalar Mul and Add for all c in
// [1,16], including misaligned slice heads and tails); the word kernels trade
// the per-symbol range checks for throughput and are meant for validated
// data. A symbol with bits above c yields a masked product, never a panic.
//
// Why packing wins: a gf.Sym is a uint16 in memory whatever the field width,
// so a per-symbol table sweep over an M-symbol slice moves 2M bytes in and 2M
// bytes out and runs M loop iterations. The packed form holds 8 (c <= 8) or
// 4 (c <= 16) symbols per uint64, so the same sweep moves 4-8x less memory,
// performs one wide load and one wide store per word, and retires an
// unrolled straight-line body per word instead of 8 (resp. 4) dependent
// read-modify-write iterations. The table lookups themselves do not
// disappear — each packed symbol still pays its one (c <= 8) or two
// (c > 8) lookups — but they pipeline against each other inside a word
// because the products combine with independent shifts into one accumulator.
//
// Packing is only worth its two linear passes when the packed lanes are
// swept more than once, which is exactly the shape of the Reed-Solomon
// matrix sweeps (internal/rs): K packed source slabs are swept K·N times by
// the encode matrix and K·K times by the interpolation matrix, so the
// pack/unpack boundary cost amortizes to ~1/K of one sweep.

// SymsPerWord returns how many packed symbols one uint64 lane word carries
// for a field of width c: 8 for c <= 8, 4 for c <= 16.
func SymsPerWord(c uint) int {
	if c <= 8 {
		return 8
	}
	return 4
}

// PackedLen returns the number of lane words needed to pack n symbols of
// width c (the final word is zero-padded past n).
func PackedLen(c uint, n int) int {
	spw := SymsPerWord(c)
	return (n + spw - 1) / spw
}

// Pack packs src into little-endian lane words: symbol i of a c <= 8 field
// lands in byte i%8 of word i/8, symbol i of a wider field in half-word i%4
// of word i/4. dst must hold PackedLen(c, len(src)) words; the tail of the
// last word is zero-filled (zero-padding is harmless to every kernel:
// y·0 = 0). Symbols are masked to c bits on the way in.
func Pack(c uint, src []Sym, dst []uint64) {
	mask := uint64(1)<<c - 1
	if c <= 8 {
		n := len(src) / 8 * 8
		w := 0
		for i := 0; i < n; i += 8 {
			s := src[i : i+8 : i+8]
			dst[w] = uint64(s[0])&mask |
				uint64(s[1])&mask<<8 |
				uint64(s[2])&mask<<16 |
				uint64(s[3])&mask<<24 |
				uint64(s[4])&mask<<32 |
				uint64(s[5])&mask<<40 |
				uint64(s[6])&mask<<48 |
				uint64(s[7])&mask<<56
			w++
		}
		if n < len(src) {
			var last uint64
			for i, s := range src[n:] {
				last |= uint64(s) & mask << (8 * uint(i))
			}
			dst[w] = last
		}
		return
	}
	n := len(src) / 4 * 4
	w := 0
	for i := 0; i < n; i += 4 {
		s := src[i : i+4 : i+4]
		dst[w] = uint64(s[0])&mask |
			uint64(s[1])&mask<<16 |
			uint64(s[2])&mask<<32 |
			uint64(s[3])&mask<<48
		w++
	}
	if n < len(src) {
		var last uint64
		for i, s := range src[n:] {
			last |= uint64(s) & mask << (16 * uint(i))
		}
		dst[w] = last
	}
}

// Unpack writes the first len(dst) packed symbols of src back into dst,
// undoing Pack's layout.
func Unpack(c uint, src []uint64, dst []Sym) {
	if c <= 8 {
		n := len(dst) / 8 * 8
		w := 0
		for i := 0; i < n; i += 8 {
			x := src[w]
			w++
			s := dst[i : i+8 : i+8]
			s[0] = Sym(x & 0xFF)
			s[1] = Sym(x >> 8 & 0xFF)
			s[2] = Sym(x >> 16 & 0xFF)
			s[3] = Sym(x >> 24 & 0xFF)
			s[4] = Sym(x >> 32 & 0xFF)
			s[5] = Sym(x >> 40 & 0xFF)
			s[6] = Sym(x >> 48 & 0xFF)
			s[7] = Sym(x >> 56)
		}
		if n < len(dst) {
			x := src[w]
			for i := range dst[n:] {
				dst[n+i] = Sym(x >> (8 * uint(i)) & 0xFF)
			}
		}
		return
	}
	n := len(dst) / 4 * 4
	w := 0
	for i := 0; i < n; i += 4 {
		x := src[w]
		w++
		s := dst[i : i+4 : i+4]
		s[0] = Sym(x & 0xFFFF)
		s[1] = Sym(x >> 16 & 0xFFFF)
		s[2] = Sym(x >> 32 & 0xFFFF)
		s[3] = Sym(x >> 48)
	}
	if n < len(dst) {
		x := src[w]
		for i := range dst[n:] {
			dst[n+i] = Sym(x >> (16 * uint(i)) & 0xFFFF)
		}
	}
}

// WordTab is a per-scalar multiplication table for the word-sliced kernels.
// The zero value is not usable; build one with Field.WordTabFull. It has one
// shape per packing width:
//
//   - c <= 8: one 256-entry byte table, y·s = full[s], one lookup per packed
//     byte;
//   - c > 8: two 256-entry half-word tables, y·s = lo[s&0xFF] ^ hi[s>>8],
//     applied to each of a word's 4 half-words.
type WordTab struct {
	full8      *[256]byte   // c <= 8
	lo16, hi16 *[256]uint16 // c > 8
}

// WordTabFull builds the word table for the scalar y. It costs 2^c (c <= 8)
// or 512 (c > 8) scalar multiplications, so it is meant for cached matrices
// (internal/rs), not per-call use.
func (f *Field) WordTabFull(y Sym) WordTab {
	f.checkRange(y)
	if f.c <= 8 {
		var full [256]byte
		for v := 0; v < f.order; v++ {
			full[v] = byte(f.Mul(y, Sym(v)))
		}
		return WordTab{full8: &full}
	}
	var lo, hi [256]uint16
	for v := 0; v < 256; v++ {
		lo[v] = uint16(f.Mul(y, Sym(v)))
		if vh := v << 8; vh < f.order {
			hi[v] = uint16(f.Mul(y, Sym(vh)))
		}
	}
	return WordTab{lo16: &lo, hi16: &hi}
}

// MulWordsXor accumulates dst[w] ^= y·src[w] over packed lane words (y being
// the table's scalar, applied to every packed symbol independently). dst
// must be at least as long as src.
func (t *WordTab) MulWordsXor(src, dst []uint64) {
	dst = dst[:len(src)]
	switch {
	case t.full8 != nil:
		full := t.full8
		for w, x := range src {
			dst[w] ^= uint64(full[x&0xFF]) |
				uint64(full[x>>8&0xFF])<<8 |
				uint64(full[x>>16&0xFF])<<16 |
				uint64(full[x>>24&0xFF])<<24 |
				uint64(full[x>>32&0xFF])<<32 |
				uint64(full[x>>40&0xFF])<<40 |
				uint64(full[x>>48&0xFF])<<48 |
				uint64(full[x>>56])<<56
		}
	default:
		lo, hi := t.lo16, t.hi16
		for w, x := range src {
			dst[w] ^= uint64(lo[x&0xFF]^hi[x>>8&0xFF]) |
				uint64(lo[x>>16&0xFF]^hi[x>>24&0xFF])<<16 |
				uint64(lo[x>>32&0xFF]^hi[x>>40&0xFF])<<32 |
				uint64(lo[x>>48&0xFF]^hi[x>>56])<<48
		}
	}
}

// MulWords writes dst[w] = y·src[w], the overwriting variant of MulWordsXor.
func (t *WordTab) MulWords(src, dst []uint64) {
	dst = dst[:len(src)]
	switch {
	case t.full8 != nil:
		full := t.full8
		for w, x := range src {
			dst[w] = uint64(full[x&0xFF]) |
				uint64(full[x>>8&0xFF])<<8 |
				uint64(full[x>>16&0xFF])<<16 |
				uint64(full[x>>24&0xFF])<<24 |
				uint64(full[x>>32&0xFF])<<32 |
				uint64(full[x>>40&0xFF])<<40 |
				uint64(full[x>>48&0xFF])<<48 |
				uint64(full[x>>56])<<56
		}
	default:
		lo, hi := t.lo16, t.hi16
		for w, x := range src {
			dst[w] = uint64(lo[x&0xFF]^hi[x>>8&0xFF]) |
				uint64(lo[x>>16&0xFF]^hi[x>>24&0xFF])<<16 |
				uint64(lo[x>>32&0xFF]^hi[x>>40&0xFF])<<32 |
				uint64(lo[x>>48&0xFF]^hi[x>>56])<<48
		}
	}
}

// AddWords accumulates dst[w] ^= src[w] — field addition over 8 (resp. 4)
// packed symbols per operation. dst must be at least as long as src.
func AddWords(src, dst []uint64) {
	dst = dst[:len(src)]
	for w, x := range src {
		dst[w] ^= x
	}
}
