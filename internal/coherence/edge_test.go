package coherence

// Partition-edge property suite: the randomized model check in
// property_test.go draws ranges uniformly, so exact-boundary collisions
// (two claims meeting at a byte, width-1 halos straddling a partition
// edge) are rare events. Distributed arrays make them the common case —
// every halo exchange touches the first/last byte of a partition — so
// this file re-runs the model comparison with ranges biased hard onto
// partition edges and width-1 slivers, plus directed tests for the
// specific shapes the darray runtime produces: adjacent claims that
// must re-merge, rollbacks of a width-1 claim at an exact edge, and
// stale-generation host validation racing an edge claim.

import (
	"math/rand"
	"testing"
)

// Partition layout mirroring a 3-way row split of a 96-byte buffer:
// holder i owns [32i, 32(i+1)), halos are width-1.
var edgePoints = []int{0, 1, 31, 32, 33, 63, 64, 65, 95, 96}

// TestDirectoryPropertyPartitionEdges is the uniform property test with
// its range generator swapped for one that lands on partition edges and
// width-1 slivers almost always. Any off-by-one in split/merge/rollback
// bookkeeping shows up here long before the uniform test would find it.
func TestDirectoryPropertyPartitionEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	randRange := func() (int, int) {
		// 1 in 8 ranges is uniform to keep the state space mixed; the
		// rest start at an edge point and are width-1 half the time.
		if rng.Intn(8) == 0 {
			off := rng.Intn(propSize)
			return off, off + 1 + rng.Intn(propSize-off)
		}
		off := edgePoints[rng.Intn(len(edgePoints))]
		if off >= propSize {
			off = propSize - 1
		}
		if rng.Intn(2) == 0 {
			return off, off + 1
		}
		end := edgePoints[rng.Intn(len(edgePoints))]
		if end <= off {
			return off, off + 1
		}
		return off, end
	}
	for trial := 0; trial < 150; trial++ {
		d, m := runTrial(t, rng, trial, randRange)
		// Rollback at an exact edge: a width-1 sliver on a partition
		// boundary.
		off := edgePoints[rng.Intn(len(edgePoints))]
		if off >= propSize {
			off = propSize - 1
		}
		checkImmediateRollback(t, rng, trial, "edge-rollback", d, m, off, off+1)
	}
}

// holderAt reads one byte's state for one holder via the public query
// surface, so directed assertions stay byte-exact.
func holderAt(t *testing.T, d *Dir, h Holder, pos int) State {
	t.Helper()
	rs := d.Regions(pos, pos+1)
	if len(rs) != 1 {
		t.Fatalf("byte %d: %d regions, want 1", pos, len(rs))
	}
	return rs[0].Holders[h]
}

func hostAt(t *testing.T, d *Dir, pos int) State {
	t.Helper()
	rs := d.Regions(pos, pos+1)
	if len(rs) != 1 {
		t.Fatalf("byte %d: %d regions, want 1", pos, len(rs))
	}
	return rs[0].Host
}

// TestAdjacentClaimsRemergeAtEdges drives the steady-state darray shape:
// three holders claim exactly-adjacent partitions, exchange width-1
// halos across each edge, then re-claim. States must be byte-exact at
// every edge, and the span table must re-merge instead of accreting a
// boundary per iteration.
func TestAdjacentClaimsRemergeAtEdges(t *testing.T) {
	h0 := &tHolder{name: "h0"}
	h1 := &tHolder{name: "h1"}
	h2 := &tHolder{name: "h2"}
	d := New(1, propSize, h0, h1, h2)
	hs := []*tHolder{h0, h1, h2}
	parts := [][2]int{{0, 32}, {32, 64}, {64, 96}}

	settled := &tGate{name: "settled", settled: true}
	var spanHigh int
	for iter := 0; iter < 8; iter++ {
		// Each holder rewrites its partition.
		for i, p := range parts {
			d.Claim(hs[i], p[0], p[1], settled)
		}
		// Width-1 halo exchange across both interior edges, both ways.
		d.ValidateForward(h0, h1, 31, 32, settled, settled)
		d.ValidateForward(h1, h0, 32, 33, settled, settled)
		d.ValidateForward(h1, h2, 63, 64, settled, settled)
		d.ValidateForward(h2, h1, 64, 65, settled, settled)
		d.SettleForward(h1, 31, 32, settled, true)
		d.SettleForward(h0, 32, 33, settled, true)
		d.SettleForward(h2, 63, 64, settled, true)
		d.SettleForward(h1, 64, 65, settled, true)
		d.RetireOutbound(h0, 31, 32, settled)
		d.RetireOutbound(h1, 32, 33, settled)
		d.RetireOutbound(h1, 63, 64, settled)
		d.RetireOutbound(h2, 64, 65, settled)

		// Byte-exact states at each edge: the forwarded byte is Shared
		// on both sides, its neighbours stay exclusive.
		for _, c := range []struct {
			pos        int
			owner, nbr *tHolder
			want       State
		}{
			{30, h0, h1, Invalid},
			{31, h0, h1, Shared},
			{32, h1, h0, Shared},
			{33, h1, h0, Invalid},
			{62, h1, h2, Invalid},
			{63, h1, h2, Shared},
			{64, h2, h1, Shared},
			{65, h2, h1, Invalid},
		} {
			if got := holderAt(t, d, c.nbr, c.pos); got != c.want {
				t.Fatalf("iter %d byte %d: neighbour %s = %v, want %v\n%s",
					iter, c.pos, c.nbr.name, got, c.want, d.DebugString())
			}
			wantOwner := Modified
			if c.want == Shared {
				wantOwner = Shared // forwarding demotes the owner's copy
			}
			if got := holderAt(t, d, c.owner, c.pos); got != wantOwner {
				t.Fatalf("iter %d byte %d: owner %s = %v, want %v\n%s",
					iter, c.pos, c.owner.name, got, wantOwner, d.DebugString())
			}
		}
		if iter == 0 {
			spanHigh = d.SpanCount()
		} else if n := d.SpanCount(); n > spanHigh {
			t.Fatalf("iter %d: span table grew %d -> %d across identical iterations (merge not re-coalescing)",
				iter, spanHigh, n)
		}
	}
	// Next iteration's claims must re-invalidate exactly the halo bytes.
	for i, p := range parts {
		d.Claim(hs[i], p[0], p[1], settled)
	}
	for _, c := range []struct {
		pos int
		h   *tHolder
	}{{31, h1}, {32, h0}, {63, h2}, {64, h1}} {
		if got := holderAt(t, d, c.h, c.pos); got != Invalid {
			t.Fatalf("after re-claim, byte %d: stale halo copy on %s = %v, want Invalid", c.pos, c.h.name, got)
		}
	}
	for i, p := range parts {
		for pos := p[0]; pos < p[1]; pos++ {
			if got := holderAt(t, d, hs[i], pos); got != Modified {
				t.Fatalf("after re-claim, byte %d: owner %s = %v, want Modified", pos, hs[i].name, got)
			}
		}
	}
}

// TestRollbackWidthOneAtPartitionEdge claims exactly the last byte of a
// neighbour's partition and rolls the claim back, both with and without
// an interim mutation. The restored state must be byte-exact: one-off
// splice errors here corrupt precisely the halo byte darray depends on.
func TestRollbackWidthOneAtPartitionEdge(t *testing.T) {
	h0 := &tHolder{name: "h0"}
	h1 := &tHolder{name: "h1"}
	h2 := &tHolder{name: "h2"}
	d := New(2, propSize, h0, h1, h2)
	settled := &tGate{name: "settled", settled: true}
	d.Claim(h0, 0, 32, settled)
	d.Claim(h1, 32, 64, settled)
	d.Claim(h2, 64, 96, settled)

	// Clean rollback: h1 claims h0's last byte [31,32), command fails.
	// A failed write gate is never Settled (the contract is "completed
	// successfully"), so merging must not drop it before the rollback.
	g := &tGate{name: "w1"}
	snap, gen := d.Claim(h1, 31, 32, g)
	d.RollbackClaim(h1, g, 31, 32, gen, snap)
	if got := holderAt(t, d, h0, 31); got != Modified {
		t.Fatalf("byte 31 after rollback: h0 = %v, want Modified restored\n%s", got, d.DebugString())
	}
	if got := holderAt(t, d, h1, 31); got != Invalid {
		t.Fatalf("byte 31 after rollback: h1 = %v, want Invalid", got)
	}
	// Neighbouring bytes on both sides of the splice must be untouched.
	if got := holderAt(t, d, h0, 30); got != Modified {
		t.Fatalf("byte 30 after rollback: h0 = %v, want Modified", got)
	}
	if got := holderAt(t, d, h1, 32); got != Modified {
		t.Fatalf("byte 32 after rollback: h1 = %v, want Modified", got)
	}

	// First byte of a partition, same dance from the other side.
	g2 := &tGate{name: "w2"}
	snap, gen = d.Claim(h0, 32, 33, g2)
	d.RollbackClaim(h0, g2, 32, 33, gen, snap)
	if got := holderAt(t, d, h1, 32); got != Modified {
		t.Fatalf("byte 32 after rollback: h1 = %v, want Modified restored", got)
	}
	if got := holderAt(t, d, h0, 32); got != Invalid {
		t.Fatalf("byte 32 after rollback: h0 = %v, want Invalid", got)
	}

	// Rollback with an interim mutation: the snapshot must NOT be
	// spliced; the interim state stands and only the failed claim is
	// withdrawn.
	g3 := &tGate{name: "w3"}
	snap, gen = d.Claim(h2, 63, 65, g3) // straddles the h1/h2 edge
	d.Validate(h0, 64, 65)              // interim: h0 picks up a Shared copy
	d.RollbackClaim(h2, g3, 63, 65, gen, snap)
	if got := holderAt(t, d, h0, 64); got != Shared {
		t.Fatalf("byte 64: interim Shared copy on h0 lost by rollback: %v\n%s", got, d.DebugString())
	}
	if got := holderAt(t, d, h2, 63); got != Invalid {
		t.Fatalf("byte 63: failed claim not withdrawn from h2: %v", got)
	}
	if got := holderAt(t, d, h2, 64); got != Invalid {
		t.Fatalf("byte 64: failed claim not withdrawn from h2: %v", got)
	}
	// h1's pre-claim copy of 63 is gone for good (interim path keeps the
	// post-claim state), and byte 65 was outside the claim entirely.
	if got := holderAt(t, d, h1, 63); got != Invalid {
		t.Fatalf("byte 63: h1 = %v, want Invalid (interim path must not splice the snapshot)", got)
	}
	if got := holderAt(t, d, h2, 65); got != Modified {
		t.Fatalf("byte 65: h2 = %v, want Modified (outside the rolled-back claim)", got)
	}
}

// TestStaleGenerationValidateHostAtEdge: a host read-back racing a
// width-1 edge claim must refuse to validate with its stale ticket —
// accepting it would resurrect the host copy over the claimer's fresh
// Modified byte.
func TestStaleGenerationValidateHostAtEdge(t *testing.T) {
	h0 := &tHolder{name: "h0"}
	h1 := &tHolder{name: "h1"}
	d := New(3, propSize, h0, h1)
	settled := &tGate{name: "settled", settled: true}

	gen := d.Generation()
	d.Claim(h0, 31, 32, settled) // edge claim bumps the generation
	if d.ValidateHost(0, 32, gen) {
		t.Fatalf("ValidateHost accepted a stale generation over a fresh edge claim")
	}
	if got := hostAt(t, d, 31); got != Invalid {
		t.Fatalf("byte 31: host = %v after refused stale validate, want Invalid", got)
	}
	if got := holderAt(t, d, h0, 31); got != Modified {
		t.Fatalf("byte 31: h0 = %v, want Modified", got)
	}
	// A fresh ticket for a range not touching the claim still works.
	if !d.ValidateHost(0, 31, d.RangeGeneration(0, 31)) {
		t.Fatalf("ValidateHost refused a current generation for an untouched range")
	}
	if got := hostAt(t, d, 30); got != Shared {
		t.Fatalf("byte 30: host = %v, want Shared", got)
	}
	if got := hostAt(t, d, 31); got != Invalid {
		t.Fatalf("byte 31: adjacent host validate leaked onto the claimed byte: %v", got)
	}
}
