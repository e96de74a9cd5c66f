package protocol

import (
	"encoding/binary"
	"fmt"
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

// EncodeDelta encodes cur as a delta against baseline prev. It returns
// ok=false — ship the full payload instead — when the slices differ in
// length or the delta would be as large as the payload itself.
func EncodeDelta(prev, cur []byte) ([]byte, bool) {
	n := len(cur)
	if len(prev) != n || n == 0 {
		return nil, false
	}
	var out []byte
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
		if out == nil {
			out = make([]byte, 0, n/4)
		}
		out = append(out, tmp[:k]...)
		out = append(out, cur[start:end]...)
		if len(out) >= n {
			return nil, false // not smaller: full frame wins
		}
		i = end
	}
	if out == nil {
		out = []byte{} // identical payload: empty (non-nil) delta
	}
	return out, true
}

// DecodeDelta reconstructs a payload of the given size from a delta and
// its baseline, onto a fresh slice (callers hand the result to native
// enqueues that may outlive the baseline).
func DecodeDelta(prev, delta []byte, size int) ([]byte, error) {
	out := make([]byte, size)
	if err := ApplyDelta(out, prev, delta); err != nil {
		return nil, err
	}
	return out, nil
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
