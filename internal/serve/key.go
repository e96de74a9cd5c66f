package serve

// Key is a 128-bit content-addressed cache key: two independent 64-bit
// FNV-1a style hashes over the same field stream. Collision probability
// at 2^64 per half is negligible for a result cache (a collision returns
// a stale-but-plausible result, not a crash, and the cache is advisory),
// and 128 bits keeps the map key comparable and allocation-free.
//
// The key is derived from the complete semantic identity of a job:
//
//	buildID      = hash(program source, build options)
//	kernel name
//	frozen wire-format args (kind + raw image per argument)
//	launch shape (global offset / global / local sizes)
//	output size
//	input content hash (the inline input payload)
//
// Client and daemon derive keys independently from the same wire fields —
// keys never travel on the wire, so a client cannot poison the daemon's
// shared cache with a mislabeled key.
type Key struct {
	A, B uint64
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
	// The B half starts from a different basis and folds each byte with a
	// rotation, making the two halves effectively independent functions.
	fnvOffsetB = uint64(0x9e3779b97f4a7c15)
)

// Hasher accumulates a Key over a field stream. The zero value is NOT
// ready; use NewHasher.
type Hasher struct {
	a, b uint64
}

// NewHasher returns a hasher with both halves at their offset basis.
func NewHasher() Hasher { return Hasher{a: fnvOffset, b: fnvOffsetB} }

// Resume returns a hasher primed with a previously accumulated key,
// continuing the field stream exactly where the prefix's hasher left
// off: Resume(prefix.Sum()) followed by the suffix fields produces the
// same key as hashing prefix+suffix in one stream. Callers memoize the
// digest of a constant prefix (program source, kernel name) once per
// kernel and resume per job, so large constant fields are never
// re-hashed on the per-job fast path.
func Resume(k Key) Hasher { return Hasher{a: k.A, b: k.B} }

// Bytes folds raw bytes into the key, length-delimited so that
// ("ab","c") and ("a","bc") hash differently.
func (h *Hasher) Bytes(p []byte) {
	h.U64(uint64(len(p)))
	for _, c := range p {
		h.a = (h.a ^ uint64(c)) * fnvPrime
		h.b = ((h.b << 7) | (h.b >> 57)) ^ uint64(c)
		h.b *= fnvPrime
	}
}

// String folds a length-delimited string.
func (h *Hasher) String(s string) {
	h.U64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		c := s[i]
		h.a = (h.a ^ uint64(c)) * fnvPrime
		h.b = ((h.b << 7) | (h.b >> 57)) ^ uint64(c)
		h.b *= fnvPrime
	}
}

// U64 folds a 64-bit value byte by byte.
func (h *Hasher) U64(v uint64) {
	for i := 0; i < 8; i++ {
		c := byte(v >> (8 * i))
		h.a = (h.a ^ uint64(c)) * fnvPrime
		h.b = ((h.b << 7) | (h.b >> 57)) ^ uint64(c)
		h.b *= fnvPrime
	}
}

// I64 folds a signed 64-bit value.
func (h *Hasher) I64(v int64) { h.U64(uint64(v)) }

// U8 folds one byte.
func (h *Hasher) U8(v uint8) { h.U64(uint64(v)) }

// Ints folds a length-delimited int slice (launch shapes).
func (h *Hasher) Ints(vs []int) {
	h.U64(uint64(len(vs)))
	for _, v := range vs {
		h.I64(int64(v))
	}
}

// Sum returns the accumulated key.
func (h *Hasher) Sum() Key { return Key{A: h.a, B: h.b} }
