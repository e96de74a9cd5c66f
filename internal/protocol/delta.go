package protocol

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Replay payload delta encoding. Iterative applications (the paper's
// motivating OSEM-style loops) re-upload a mutable write slot every
// iteration, but typically change only part of it: boundary values, a
// parameter block, a sub-grid. Both sides of a registered graph already
// hold the previous iteration's payload — the client keeps it as the
// recorded plan's data, the daemon as the cached command's staged
// payload — so a replay update can ship just the changed byte runs and
// reconstruct the rest from that shared baseline.
//
// The encoding is a sequence of records, each:
//
//	uvarint skip   bytes unchanged (copied from the baseline)
//	uvarint lit    length of the literal run that follows
//	lit bytes      the new bytes
//
// with an implicit unchanged tail after the last record: decoding copies
// whatever remains from the baseline. An empty delta therefore means
// "identical to the previous iteration". Gaps shorter than deltaMergeGap
// are folded into the surrounding literal run — two varint headers cost
// more than re-sending a handful of unchanged bytes.
//
// The client marks each shipped update GraphPayloadFull or
// GraphPayloadDelta: encoding falls back to a full frame whenever the
// delta would not be smaller.

// GraphUpdate.Encoding values for GraphUpdateWriteData payload streams.
const (
	GraphPayloadFull  uint8 = 0 // stream carries the complete payload
	GraphPayloadDelta uint8 = 1 // stream carries a delta vs the cached payload
)

// deltaMergeGap is the longest run of unchanged bytes folded into a
// literal instead of ending it: a skip/lit record header costs up to
// ~10 bytes, so short gaps are cheaper re-sent.
const deltaMergeGap = 16

// EncodeDelta encodes cur as a delta against baseline prev on a fresh
// slice. It returns ok=false — ship the full payload instead — when the
// slices differ in length or the delta would be as large as the payload
// itself.
func EncodeDelta(prev, cur []byte) ([]byte, bool) {
	return AppendDelta(nil, prev, cur)
}

// AppendDelta is EncodeDelta onto dst: on ok the delta is dst[len(dst):]
// of the result, otherwise dst comes back as it went in. A delta is
// always shorter than cur, so a dst with len(cur) spare bytes never
// grows.
//
// Both scans run a word at a time. Payloads whose values change while
// their high bytes do not (floats sharing an exponent) have an equal
// byte in nearly every word and never the deltaMergeGap+1 in a row that
// would end the literal, so a byte loop spends the whole payload in its
// gap counter; and the size of a record is checked before its literal
// is copied, so a rewrite that cannot beat the full frame costs one
// read of the two payloads.
func AppendDelta(dst, prev, cur []byte) ([]byte, bool) {
	n := len(cur)
	if len(prev) != n || n == 0 {
		return dst, false
	}
	out := dst
	var tmp [2 * binary.MaxVarintLen64]byte
	for i := 0; i < n; {
		start := firstDiff(prev, cur, i)
		if start == n {
			break // unchanged tail is implicit
		}
		end := literalEnd(prev, cur, start)
		k := binary.PutUvarint(tmp[:], uint64(start-i))
		k += binary.PutUvarint(tmp[k:], uint64(end-start))
		if len(out)-len(dst)+k+end-start >= n {
			return dst, false // not smaller: full frame wins
		}
		out = append(out, tmp[:k]...)
		out = append(out, cur[start:end]...)
		i = end
	}
	return out, true
}

// firstDiff returns the first index at or after i where cur and prev
// differ, or len(cur).
func firstDiff(prev, cur []byte, i int) int {
	n := len(cur)
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(prev[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && cur[i] == prev[i] {
		i++
	}
	return i
}

// literalEnd returns the end of the literal run that starts at the
// differing byte start: one past the last differing byte that is
// followed by more than deltaMergeGap equal bytes or by nothing but
// equal bytes. Any run of more than deltaMergeGap equal bytes holds an
// all-equal word at stride 8 from any start, so the scan looks for one
// and only then goes byte-wise, to the bounds of the run around it.
func literalEnd(prev, cur []byte, start int) int {
	n := len(cur)
	for p := start + 1; p+8 <= n; {
		if binary.LittleEndian.Uint64(cur[p:]) != binary.LittleEndian.Uint64(prev[p:]) {
			p += 8
			continue
		}
		runStart := p // stops at start at the latest: that byte differs
		for cur[runStart-1] == prev[runStart-1] {
			runStart--
		}
		runEnd, limit := p+8, runStart+deltaMergeGap+1
		for runEnd < limit && runEnd < n && cur[runEnd] == prev[runEnd] {
			runEnd++
		}
		if runEnd == limit || runEnd == n {
			return runStart
		}
		p = runEnd + 1 // a short gap: the literal goes on past it
	}
	end := n
	for cur[end-1] == prev[end-1] {
		end--
	}
	return end
}

// ApplyDelta reconstructs a payload into dst (fully overwritten, same
// length as the baseline). The baseline must be the payload the delta
// was encoded against — the protocol guarantees this by construction
// (updates and their baselines ride the same ordered session), so a
// mismatch here means a corrupt or malicious stream.
func ApplyDelta(dst, prev, delta []byte) error {
	size := len(dst)
	if len(prev) != size {
		return fmt.Errorf("delta baseline is %d bytes, payload size %d", len(prev), size)
	}
	out := dst
	pos := 0
	r := delta
	for len(r) > 0 {
		skip, k := binary.Uvarint(r)
		if k <= 0 {
			return fmt.Errorf("malformed delta: bad skip varint at payload offset %d", pos)
		}
		r = r[k:]
		lit, k := binary.Uvarint(r)
		if k <= 0 {
			return fmt.Errorf("malformed delta: bad literal varint at payload offset %d", pos)
		}
		r = r[k:]
		if skip > uint64(size-pos) || lit > uint64(size-pos)-skip || uint64(len(r)) < lit {
			return fmt.Errorf("malformed delta: record overruns payload (%d+%d at %d of %d)", skip, lit, pos, size)
		}
		pos += copy(out[pos:pos+int(skip)], prev[pos:])
		pos += copy(out[pos:pos+int(lit)], r)
		r = r[lit:]
	}
	copy(out[pos:], prev[pos:])
	return nil
}
