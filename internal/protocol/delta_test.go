package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// DecodeDelta is ApplyDelta onto a fresh slice of the given size.
func DecodeDelta(prev, delta []byte, size int) ([]byte, error) {
	out := make([]byte, size)
	if err := ApplyDelta(out, prev, delta); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeDeltaReference is the byte-at-a-time encoder EncodeDelta
// replaced, kept as the statement of the format: EncodeDelta must emit
// exactly these bytes and decline exactly where this declines.
func encodeDeltaReference(prev, cur []byte) ([]byte, bool) {
	n := len(cur)
	if len(prev) != n || n == 0 {
		return nil, false
	}
	out := []byte{}
	var tmp [2 * binary.MaxVarintLen64]byte
	i := 0
	for i < n {
		start := i
		for start < n && cur[start] == prev[start] {
			start++
		}
		if start == n {
			break // unchanged tail is implicit
		}
		// Extend the literal run past any gap shorter than deltaMergeGap.
		end := start + 1
		same := 0
		for j := start + 1; j < n; j++ {
			if cur[j] == prev[j] {
				same++
				if same > deltaMergeGap {
					break
				}
			} else {
				same = 0
				end = j + 1
			}
		}
		k := binary.PutUvarint(tmp[:], uint64(start-i))
		k += binary.PutUvarint(tmp[k:], uint64(end-start))
		out = append(out, tmp[:k]...)
		out = append(out, cur[start:end]...)
		if len(out) >= n {
			return nil, false // not smaller: full frame wins
		}
		i = end
	}
	return out, true
}

// checkAgainstReference requires EncodeDelta and AppendDelta to agree
// with the reference encoder byte for byte.
func checkAgainstReference(t *testing.T, what string, prev, cur []byte) {
	t.Helper()
	want, wantOK := encodeDeltaReference(prev, cur)
	got, ok := EncodeDelta(prev, cur)
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes): EncodeDelta = %x, %v; reference = %x, %v\nprev %x\ncur  %x", what, len(cur), got, ok, want, wantOK, prev, cur)
	}
	head := []byte("head")
	app, ok := AppendDelta(head[:len(head):len(head)], prev, cur)
	if ok != wantOK || !bytes.Equal(app[:len(head)], head) || (ok && !bytes.Equal(app[len(head):], want)) || (!ok && len(app) != len(head)) {
		t.Fatalf("%s (%d bytes): AppendDelta = %x, %v; reference = %x, %v", what, len(cur), app, ok, want, wantOK)
	}
}

// TestDeltaMatchesReference is the differential test: random pairs of
// every length 1–400 (so every tail length mod 8 occurs at every
// alignment of the last record) under sparse, dense and float-shaped
// mutations, then the shapes the word scan could get wrong — gaps of
// exactly deltaMergeGap and deltaMergeGap+1 at every alignment, and
// equal runs touching either end.
func TestDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mutations := map[string]func(prev, cur []byte){
		"sparse": func(_, cur []byte) {
			for k := rng.Intn(4); k > 0; k-- {
				cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
			}
		},
		"spans": func(_, cur []byte) {
			for k := 1 + rng.Intn(5); k > 0; k-- {
				off := rng.Intn(len(cur))
				for i, ln := off, 1+rng.Intn(40); i < len(cur) && i < off+ln; i++ {
					cur[i] = byte(rng.Int())
				}
			}
		},
		// Dense: each byte changes with probability 1/2, so gaps of every
		// short length turn up next to each other.
		"dense": func(_, cur []byte) {
			for i := range cur {
				if rng.Intn(2) == 0 {
					cur[i] ^= byte(1 + rng.Intn(255))
				}
			}
		},
		// Float-shaped: little-endian float32s in [1, 2) on both sides — the
		// mantissa bytes differ, the exponent byte never does.
		"floats": func(prev, cur []byte) {
			for i := 0; i+4 <= len(cur); i += 4 {
				binary.LittleEndian.PutUint32(prev[i:], math.Float32bits(1+rng.Float32()))
				binary.LittleEndian.PutUint32(cur[i:], math.Float32bits(1+rng.Float32()))
			}
		},
	}
	for n := 1; n <= 400; n++ {
		for name, mutate := range mutations {
			for trial := 0; trial < 4; trial++ {
				prev := make([]byte, n)
				rng.Read(prev)
				cur := append([]byte(nil), prev...)
				mutate(prev, cur)
				checkAgainstReference(t, name, prev, cur)
			}
		}
	}

	// Two changed bytes with a gap of 15, 16, 17 and 18 equal bytes between
	// them, the first at every offset mod 8 and the payload ending at every
	// distance 0–20 behind the second.
	for gap := deltaMergeGap - 1; gap <= deltaMergeGap+2; gap++ {
		for first := 0; first < 24; first++ {
			for tail := 0; tail <= 20; tail++ {
				prev := make([]byte, first+1+gap+1+tail)
				cur := append([]byte(nil), prev...)
				cur[first] = 1
				cur[first+1+gap] = 1
				checkAgainstReference(t, "gap", prev, cur)
			}
		}
	}
	// One changed span with equal runs of 0–40 bytes before and after it:
	// the run touches the start, the end, both or neither.
	for before := 0; before <= 40; before++ {
		for after := 0; after <= 40; after++ {
			for _, span := range []int{1, 7, 8, 9, 33} {
				prev := make([]byte, before+span+after)
				cur := append([]byte(nil), prev...)
				for i := before; i < before+span; i++ {
					cur[i] = 0xA5
				}
				checkAgainstReference(t, "ends", prev, cur)
			}
		}
	}
	// Larger payloads, where the not-smaller rule decides mid-stream.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6000)
		prev := make([]byte, n)
		rng.Read(prev)
		cur := append([]byte(nil), prev...)
		for k := rng.Intn(40); k > 0; k-- {
			off := rng.Intn(n)
			for i, ln := off, 1+rng.Intn(200); i < n && i < off+ln; i++ {
				cur[i] = byte(rng.Int())
			}
		}
		checkAgainstReference(t, "large", prev, cur)
	}
}

// FuzzDelta splits its input into a baseline and a same-length payload
// and requires an accepted encoding to round-trip and to match the
// reference; then it hands the raw input to ApplyDelta as a delta, which
// must fail or succeed without panicking and without writing outside
// dst.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0xAA})
	f.Add([]byte{200, 1, 0xAA})
	f.Add(bytes.Repeat([]byte{0xFF}, 12))
	f.Add(append(bytes.Repeat([]byte{7}, 64), append([]byte{9}, bytes.Repeat([]byte{7}, 63)...)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		half := len(in) / 2
		prev, cur := in[:half], in[half:2*half]
		want, wantOK := encodeDeltaReference(prev, cur)
		enc, ok := EncodeDelta(prev, cur)
		if ok != wantOK || !bytes.Equal(enc, want) {
			t.Fatalf("EncodeDelta = %x, %v; reference = %x, %v", enc, ok, want, wantOK)
		}
		if ok {
			if len(enc) >= len(cur) {
				t.Fatalf("%d-byte delta accepted for a %d-byte payload", len(enc), len(cur))
			}
			got, err := DecodeDelta(prev, enc, len(cur))
			if err != nil || !bytes.Equal(got, cur) {
				t.Fatalf("round trip: err=%v, equal=%v", err, bytes.Equal(got, cur))
			}
		}

		// Arbitrary bytes as a delta: dst sits inside a guarded arena.
		const guard = 16
		size := len(in) % 97
		arena := bytes.Repeat([]byte{0xC3}, guard+size+guard)
		base := make([]byte, size)
		_ = ApplyDelta(arena[guard:guard+size], base, in)
		for i := 0; i < guard; i++ {
			if arena[i] != 0xC3 || arena[guard+size+i] != 0xC3 {
				t.Fatalf("ApplyDelta wrote outside dst (size %d)", size)
			}
		}
	})
}

func roundTripDelta(t *testing.T, prev, cur []byte) (encoded int, usedDelta bool) {
	t.Helper()
	enc, ok := EncodeDelta(prev, cur)
	if !ok {
		return len(cur), false
	}
	if len(enc) >= len(cur) {
		t.Fatalf("encoder returned a %d-byte delta for a %d-byte payload without falling back", len(enc), len(cur))
	}
	got, err := DecodeDelta(prev, enc, len(cur))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatalf("round trip diverged (prev %d bytes, cur %d bytes, delta %d bytes)", len(prev), len(cur), len(enc))
	}
	return len(enc), true
}

func TestDeltaRoundTripShapes(t *testing.T) {
	base := make([]byte, 8192)
	for i := range base {
		base[i] = byte(i * 7)
	}
	mutate := func(spans ...[2]int) []byte {
		cur := append([]byte(nil), base...)
		for _, sp := range spans {
			for i := sp[0]; i < sp[0]+sp[1]; i++ {
				cur[i] ^= 0x5A
			}
		}
		return cur
	}
	cases := []struct {
		name string
		cur  []byte
		// wantDelta: the encoder must beat the full frame on this shape.
		wantDelta bool
	}{
		{"identical", mutate(), true},
		{"head", mutate([2]int{0, 64}), true},
		{"tail", mutate([2]int{8192 - 64, 64}), true},
		{"middle", mutate([2]int{4000, 100}), true},
		{"sparse", mutate([2]int{10, 4}, [2]int{1000, 1}, [2]int{7000, 32}), true},
		{"near-gap-merged", mutate([2]int{100, 8}, [2]int{112, 8}), true},
		{"everything-changed", bytes.Repeat([]byte{0xFF}, 8192), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, used := roundTripDelta(t, base, tc.cur)
			if used != tc.wantDelta {
				t.Fatalf("delta used=%v (encoded %d of %d bytes), want %v", used, n, len(tc.cur), tc.wantDelta)
			}
		})
	}
	// A sparse change must encode to a small fraction of the payload.
	if n, _ := roundTripDelta(t, base, mutate([2]int{4000, 100})); n > 200 {
		t.Fatalf("100-byte change encoded to %d bytes", n)
	}
}

func TestDeltaEncodeRejectsMismatchedLengths(t *testing.T) {
	if _, ok := EncodeDelta(make([]byte, 10), make([]byte, 11)); ok {
		t.Fatal("encoder accepted mismatched baseline length")
	}
	if _, ok := EncodeDelta(nil, nil); ok {
		t.Fatal("encoder accepted empty payload")
	}
}

func TestDeltaDecodeRejectsMalformed(t *testing.T) {
	prev := make([]byte, 100)
	for _, tc := range [][]byte{
		{0x80},                         // truncated varint
		{200, 1, 0xAA},                 // skip past end
		{0, 200},                       // literal length past end
		{0, 5, 1, 2},                   // literal bytes missing
		{90, 0, 90, 0},                 // cumulative overrun
		bytes.Repeat([]byte{0xFF}, 12), // varint overflow
	} {
		if _, err := DecodeDelta(prev, tc, 100); err == nil {
			t.Fatalf("decoder accepted malformed delta %v", tc)
		}
	}
	if _, err := DecodeDelta(make([]byte, 99), []byte{}, 100); err == nil {
		t.Fatal("decoder accepted wrong-size baseline")
	}
}

// TestDeltaPropertyRandom round-trips randomized payload pairs, covering
// arbitrary mixes of changed runs, and checks the fallback contract: the
// encoder either reproduces the payload exactly or declines.
func TestDeltaPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5000)
		prev := make([]byte, n)
		rng.Read(prev)
		cur := append([]byte(nil), prev...)
		// Mutate a random number of random-length spans (possibly zero).
		for k := rng.Intn(8); k > 0; k-- {
			off := rng.Intn(n)
			ln := 1 + rng.Intn(n-off)
			if ln > 256 {
				ln = 256
			}
			for i := off; i < off+ln; i++ {
				cur[i] = byte(rng.Int())
			}
		}
		roundTripDelta(t, prev, cur)
	}
}
