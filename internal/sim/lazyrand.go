package sim

import "math/rand"

// lazySource defers the expensive rngSource seeding (607 feedback steps in
// math/rand) until the first draw. Protocol code draws from Proc.Rand only
// on rare paths (the probabilistic broadcaster, Fitzi-Hirt keys), yet every
// processor of every run carries its own deterministic Rand — eagerly
// seeding them all was a measurable slice of the hot path. The draw sequence is bit-identical to
// rand.New(rand.NewSource(seed)).
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) init() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64 { return s.init().Int63() }

func (s *lazySource) Uint64() uint64 { return s.init().Uint64() }

func (s *lazySource) Seed(seed int64) {
	s.seed = seed
	s.src = nil
}

// LazyRand returns a deterministic *rand.Rand seeded with seed whose
// underlying source state is built on first use. Exported so every backend
// derives per-processor randomness identically (and equally lazily).
func LazyRand(seed int64) *rand.Rand {
	return rand.New(&lazySource{seed: seed})
}
