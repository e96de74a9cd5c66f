package serve

import (
	"encoding/binary"
	"hash/maphash"
)

// Key is a 128-bit content-addressed cache key: two 64-bit hashes of the
// same field stream under two independent, process-random seeds.
// Collision probability at 2^64 per half is negligible for a result cache
// (a collision returns a stale-but-plausible result, not a crash, and the
// cache is advisory), and 128 bits keeps the map key comparable and
// allocation-free.
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
// The seeds are drawn once per process (maphash.MakeSeed), so keys are
// deterministic within a process — a daemon's cross-session cache and a
// client's session cache see equal jobs under equal keys — and computable
// by nobody outside it. Keys never travel on the wire: client and daemon
// derive them independently, each under its own seeds, so a tenant can
// neither name nor precompute a slot of the daemon's shared cache.
type Key struct {
	A, B uint64
}

var seedA, seedB = maphash.MakeSeed(), maphash.MakeSeed()

// hashBuf is the stream buffer's size: a job-shaped stream (prefix, four
// arguments, a 256-byte input and a one-dimensional shape) fits in one
// buffer, so its key never folds.
const hashBuf = 512

// Hasher accumulates a Key over a field stream. Fields are written
// little-endian into a buffer the Hasher owns; Sum hashes the buffer
// under both seeds. A stream longer than the buffer is folded: the full
// buffer's key becomes the first 16 bytes of the next one. The zero value
// is an empty stream, the same as NewHasher.
type Hasher struct {
	n   int
	buf [hashBuf]byte
}

// NewHasher returns a hasher over an empty stream.
func NewHasher() Hasher { return Hasher{} }

// Resume returns a hasher whose stream starts with the 16 bytes of k.
// Callers memoize the key of a constant prefix (program source, kernel
// name) once per kernel and resume from it per job, so large constant
// fields are never re-hashed on the per-job path. Resume(k) followed by a
// suffix is deterministic, and differs from the suffix hashed alone.
func Resume(k Key) Hasher {
	var h Hasher
	h.putKey(k)
	return h
}

func (h *Hasher) putKey(k Key) {
	binary.LittleEndian.PutUint64(h.buf[h.n:], k.A)
	binary.LittleEndian.PutUint64(h.buf[h.n+8:], k.B)
	h.n += 16
}

// fold replaces a full buffer by its key.
func (h *Hasher) fold() {
	k := h.Sum()
	h.n = 0
	h.putKey(k)
}

// Bytes folds raw bytes into the key, length-delimited so that
// ("ab","c") and ("a","bc") hash differently.
func (h *Hasher) Bytes(p []byte) {
	h.U64(uint64(len(p)))
	write(h, p)
}

// String folds a length-delimited string.
func (h *Hasher) String(s string) {
	h.U64(uint64(len(s)))
	write(h, s)
}

// write copies raw bytes into the stream, folding whenever the buffer
// fills.
func write[T string | []byte](h *Hasher, p T) {
	for len(p) > 0 {
		if h.n == hashBuf {
			h.fold()
		}
		c := copy(h.buf[h.n:], p)
		h.n += c
		p = p[c:]
	}
}

// U64 folds a 64-bit value.
func (h *Hasher) U64(v uint64) {
	if h.n > hashBuf-8 {
		h.fold()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
}

// I64 folds a signed 64-bit value.
func (h *Hasher) I64(v int64) { h.U64(uint64(v)) }

// U8 folds one byte.
func (h *Hasher) U8(v uint8) {
	if h.n == hashBuf {
		h.fold()
	}
	h.buf[h.n] = v
	h.n++
}

// Ints folds a length-delimited int slice (launch shapes).
func (h *Hasher) Ints(vs []int) {
	h.U64(uint64(len(vs)))
	for _, v := range vs {
		h.I64(int64(v))
	}
}

// Sum returns the key of the stream so far; the stream can go on.
func (h *Hasher) Sum() Key {
	b := h.buf[:h.n]
	return Key{A: maphash.Bytes(seedA, b), B: maphash.Bytes(seedB, b)}
}
