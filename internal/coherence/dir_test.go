package coherence

import (
	"testing"

	"dopencl/internal/cl"
)

// Test doubles: holders compare by pointer identity and report the
// incarnation the test sets, gates settle on demand.

type tHolder struct {
	name        string
	down        bool
	conn, epoch uint64
}

func (h *tHolder) Incarnation() Incarnation {
	return Incarnation{Conn: h.conn, Epoch: h.epoch, Up: !h.down}
}

type tGate struct {
	name    string
	settled bool
}

func (g *tGate) Settled() bool { return g.settled }

// stateAt reads the directory state of one byte via Regions (which never
// splits the directory).
func stateAt(d *Dir, pos int) (host State, holders map[Holder]State, lost bool) {
	rs := d.Regions(pos, pos+1)
	if len(rs) != 1 {
		panic("stateAt: position not covered by exactly one region")
	}
	return rs[0].Host, rs[0].Holders, rs[0].Lost
}

func TestNewDirectoryWholeBufferShared(t *testing.T) {
	a := &tHolder{name: "A"}
	d := New(1, 1024, a)
	if d.SpanCount() != 1 {
		t.Fatalf("fresh directory has %d spans, want 1", d.SpanCount())
	}
	host, hs, lost := stateAt(d, 512)
	if host != Shared || hs[a] != Invalid || lost {
		t.Fatalf("fresh state: host=%v A=%v lost=%v", host, hs[a], lost)
	}
}

// TestClaimTable drives Claim/Validate/Invalidate sequences and checks
// the resulting per-range states, span structure and MSI invariants.
func TestClaimTable(t *testing.T) {
	type expect struct {
		pos  int
		host State
		a, b State
	}
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	cases := []struct {
		name  string
		ops   func(d *Dir, g *tGate)
		spans int
		want  []expect
	}{
		{
			name:  "claim-middle-splits",
			ops:   func(d *Dir, g *tGate) { d.Claim(a, 256, 512, g) },
			spans: 3,
			want: []expect{
				{0, Shared, Invalid, Invalid},
				{300, Invalid, Modified, Invalid},
				{600, Shared, Invalid, Invalid},
			},
		},
		{
			name: "claim-supersedes-claim",
			ops: func(d *Dir, g *tGate) {
				d.Claim(a, 0, 1024, g)
				d.Claim(b, 128, 256, &tGate{name: "g2"})
			},
			spans: 3,
			want: []expect{
				{0, Invalid, Modified, Invalid},
				{130, Invalid, Invalid, Modified},
				{512, Invalid, Modified, Invalid},
			},
		},
		{
			name: "validate-shares",
			ops: func(d *Dir, g *tGate) {
				// The client-mediated upload claim: after a download made
				// the host copy valid, shipping it to B adds a Shared copy.
				d.Claim(a, 0, 1024, g)
				g.settled = true
				if !d.ValidateHost(0, 1024, d.Generation()) {
					t.Fatal("ValidateHost refused")
				}
				d.Validate(b, 0, 512)
			},
			spans: 2,
			want: []expect{
				{0, Shared, Shared, Shared},
				{700, Shared, Shared, Invalid},
			},
		},
		{
			name: "invalidate-revokes-shared-only",
			ops: func(d *Dir, g *tGate) {
				d.Claim(a, 0, 512, g)
				d.Validate(b, 512, 1024)  // optimistic upload of the host range
				d.Invalidate(b, 512, 768) // deferred failure: revoked
				d.Invalidate(a, 0, 512)   // no-op: A is Modified, not Shared
			},
			want: []expect{
				{100, Invalid, Modified, Invalid},
				{600, Shared, Invalid, Invalid},
				{800, Shared, Invalid, Shared},
			},
		},
		{
			name: "validate-host-downgrades-owner",
			ops: func(d *Dir, g *tGate) {
				d.Claim(a, 0, 1024, g)
				if !d.ValidateHost(0, 1024, d.Generation()) {
					t.Fatal("ValidateHost with current generation refused")
				}
			},
			spans: 1,
			want:  []expect{{512, Shared, Shared, Invalid}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := New(1, 1024, a, b)
			tc.ops(d, &tGate{name: "g1"})
			for _, w := range tc.want {
				host, hs, _ := stateAt(d, w.pos)
				if host != w.host || hs[a] != w.a || hs[b] != w.b {
					t.Fatalf("byte %d: host=%v A=%v B=%v, want host=%v A=%v B=%v\n%s",
						w.pos, host, hs[a], hs[b], w.host, w.a, w.b, d.DebugString())
				}
			}
			if tc.spans != 0 && d.SpanCount() != tc.spans {
				t.Fatalf("span count %d, want %d\n%s", d.SpanCount(), tc.spans, d.DebugString())
			}
			requireInvariants(t, d, tc.name)
		})
	}
}

// TestMergeAfterGatesSettle: two adjacent claims by the same holder stay
// split while their write gates differ, and re-coalesce once the gates
// settle (settled gates are dropped by the merge pass).
func TestMergeAfterGatesSettle(t *testing.T) {
	a := &tHolder{name: "A"}
	d := New(1, 1024, a)
	g1, g2 := &tGate{name: "g1"}, &tGate{name: "g2"}
	d.Claim(a, 0, 512, g1)
	d.Claim(a, 512, 1024, g2)
	if d.SpanCount() != 2 {
		t.Fatalf("distinct unsettled gates: %d spans, want 2", d.SpanCount())
	}
	g1.settled = true
	g2.settled = true
	// Any mutation triggers the merge pass; touch an empty border range.
	d.Invalidate(a, 0, 0)
	if d.SpanCount() != 1 {
		t.Fatalf("settled gates did not re-merge: %d spans\n%s", d.SpanCount(), d.DebugString())
	}
}

// TestGenerationStaleness: ValidateHost must refuse a stale ticket for
// the mutated range but accept one for a disjoint range.
func TestGenerationStaleness(t *testing.T) {
	a := &tHolder{name: "A"}
	d := New(1, 1024, a)
	d.Claim(a, 0, 1024, &tGate{name: "g", settled: true})
	gen := d.Generation()
	d.Claim(a, 0, 256, &tGate{name: "g2"}) // interim mutation on [0,256)
	if d.ValidateHost(0, 256, gen) {
		t.Fatal("ValidateHost accepted a stale ticket for a mutated range")
	}
	if !d.ValidateHost(512, 1024, gen) {
		t.Fatal("ValidateHost refused a ticket for an untouched range")
	}
}

func TestRollbackClaimRestoresSnapshot(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 1024, a, b)
	g := &tGate{name: "g"}
	snap, gen := d.Claim(a, 100, 200, g)
	d.RollbackClaim(a, g, 100, 200, gen, snap)
	host, hs, _ := stateAt(d, 150)
	if host != Shared || hs[a] != Invalid {
		t.Fatalf("rollback left host=%v A=%v, want Shared/Invalid", host, hs[a])
	}
	if d.SpanCount() != 1 {
		t.Fatalf("rollback did not re-merge: %d spans\n%s", d.SpanCount(), d.DebugString())
	}
}

// TestRollbackClaimInterimMutation: once another mutation touched the
// range, rollback must keep the interim state and only withdraw the
// failed write's own claim.
func TestRollbackClaimInterimMutation(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 1024, a, b)
	g := &tGate{name: "g"}
	snap, gen := d.Claim(a, 100, 200, g)
	d.Claim(b, 150, 250, &tGate{name: "g2"}) // interim claim wins
	d.RollbackClaim(a, g, 100, 200, gen, snap)
	if _, hs, _ := stateAt(d, 120); hs[a] != Invalid {
		t.Fatalf("failed write's claim not withdrawn: A=%v", hs[a])
	}
	if _, hs, _ := stateAt(d, 180); hs[b] != Modified {
		t.Fatalf("interim claim clobbered by rollback: B=%v", hs[b])
	}
}

// TestSweepLostAndRestore: a holder's copies stop counting when it goes
// down. A range they were the only copy of reads DataLost, one the host
// still caches reads from there; a re-attach that finds the session
// retained brings the copies back, one that does not leaves them Lost
// until a write, and a write anywhere re-materializes what it covers. (The
// name is from the sweep and the restore that recorded this before it was
// derived.)
func TestSweepLostAndRestore(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 1024, a, b)
	d.Claim(a, 0, 1024, &tGate{name: "g", settled: true})
	// Host copy survives [512,1024) via a download.
	if !d.ValidateHost(512, 1024, d.Generation()) {
		t.Fatal("ValidateHost refused")
	}
	a.down = true
	if lr := d.LostRanges(0, 1024); len(lr) != 1 || lr[0] != [2]int{0, 512} {
		t.Fatalf("LostRanges = %v, want [[0 512]]", lr)
	}
	if _, err := d.ReadPlan(b, 0, 512); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("read of lost range: %v, want DataLost", err)
	}
	if parts, err := d.ReadPlan(b, 512, 1024); err != nil || len(parts) != 1 || parts[0].Holder != nil {
		t.Fatalf("read of surviving range: parts=%v err=%v, want host part", parts, err)
	}

	// Retained: A's copy counts again.
	a.down, a.conn = false, a.conn+1
	parts, err := d.ReadPlan(b, 0, 512)
	if err != nil || len(parts) != 1 || parts[0].Holder != a {
		t.Fatalf("after a retained re-attach: parts=%v err=%v, want read from A", parts, err)
	}
	// Not retained: Lost until rewritten.
	a.down = true
	a.down, a.conn, a.epoch = false, a.conn+1, a.epoch+1
	if _, err := d.ReadPlan(b, 0, 512); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("after an unretained re-attach: %v, want DataLost", err)
	}
	if host, hs, lost := stateAt(d, 100); host != Invalid || hs[a] != Invalid || !lost {
		t.Fatalf("after an unretained re-attach: host=%v A=%v lost=%v, want I, I, Lost", host, hs[a], lost)
	}
	d.Claim(b, 0, 256, &tGate{name: "g3"})
	if lr := d.LostRanges(0, 512); len(lr) != 1 || lr[0] != [2]int{256, 512} {
		t.Fatalf("LostRanges after re-materializing write = %v, want [[256 512]]", lr)
	}
	// The end of an epoch with the link up is a loss like any other.
	b.conn, b.epoch = b.conn+1, b.epoch+1
	if lr := d.LostRanges(0, 512); len(lr) != 1 || lr[0] != [2]int{0, 512} {
		t.Fatalf("LostRanges after B's epoch ended = %v, want [[0 512]]", lr)
	}
}

// TestStaleGatesGateNothing: a holder's gates are events of its daemon,
// which clears its event table when the connection dies. So gates
// recorded on an earlier connection gate nothing once the holder has
// re-attached — a read of a retained copy must not wait on the write that
// failed with ServerLost when the link died — and a down holder's gates
// are not handed out at all. The copies themselves count again after the
// retained re-attach. This depends on entry.gate's connection compare
// (`inc.Conn != e.conn`) and on its Up check.
func TestStaleGatesGateNothing(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	c := &tHolder{name: "C"}
	d := New(1, 1024, a, b, c)
	w, fwd, rd := &tGate{name: "w"}, &tGate{name: "fwd"}, &tGate{name: "rd"}
	d.Claim(a, 0, 1024, w)                      // a write still in flight on A
	d.ValidateForward(a, b, 512, 1024, fwd, rd) // and a forward from A to B
	if gs := d.WriteGates(a, 0, 1024); len(gs) != 1 || gs[0] != rd {
		t.Fatalf("WriteGates(A) while up = %v, want the outbound read", gs)
	}

	a.down, b.down = true, true
	if gs := d.WriteGates(a, 0, 1024); len(gs) != 0 {
		t.Fatalf("WriteGates(A) while down = %v, want none", gs)
	}
	if gs := d.InboundGates(b, 0, 1024); len(gs) != 0 {
		t.Fatalf("InboundGates(B) while down = %v, want none", gs)
	}
	if _, err := d.ReadPlan(c, 0, 512); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("read while the only holder is down: %v, want DataLost", err)
	}

	// Both re-attach, their sessions retained.
	a.down, a.conn = false, a.conn+1
	b.down, b.conn = false, b.conn+1
	parts, err := d.ReadPlan(c, 0, 1024)
	if err != nil || len(parts) != 1 || parts[0].Holder != a || len(parts[0].Gates) != 0 {
		t.Fatalf("read of the retained copy = %+v, %v; want one ungated part from A", parts, err)
	}
	if p := d.ProbeAt(c, 0, 1024); p.Src != a || p.SrcGate != nil {
		t.Fatalf("probe of the retained copy = %+v, want source A with no gate", p)
	}
	if p := d.ProbeAt(b, 512, 1024); !p.ValidHere || p.Inbound != nil {
		t.Fatalf("probe of B's forwarded copy = %+v, want valid with no gate", p)
	}
	if gs := d.WriteGates(a, 0, 1024); len(gs) != 0 {
		t.Fatalf("WriteGates(A) after the re-attach = %v, want none", gs)
	}
	if gs := d.DisownInbound(b, 0, 1024); len(gs) != 0 {
		t.Fatalf("DisownInbound(B) after the re-attach = %v, want none to cancel", gs)
	}
	// A gate recorded on the new connection gates again.
	w2 := &tGate{name: "w2"}
	d.Claim(a, 0, 256, w2)
	if p := d.ProbeAt(c, 0, 1024); p.Src != a || p.SrcGate != w2 {
		t.Fatalf("probe after a new write = %+v, want source A gated on it", p)
	}
}

func TestForwardLifecycle(t *testing.T) {
	src := &tHolder{name: "src"}
	dst := &tHolder{name: "dst"}
	rdr := &tHolder{name: "rdr"}
	d := New(1, 1024, src, dst, rdr)
	d.Claim(src, 0, 1024, &tGate{name: "w", settled: true})

	fg := &tGate{name: "fwd"}
	d.ValidateForward(src, dst, 0, 512, fg, &tGate{name: "rd"})
	if _, hs, _ := stateAt(d, 100); hs[src] != Shared || hs[dst] != Shared {
		t.Fatalf("forward states: src=%v dst=%v, want Shared/Shared", hs[src], hs[dst])
	}
	if gs := d.InboundGates(dst, 0, 512); len(gs) != 1 || gs[0] != fg {
		t.Fatalf("InboundGates = %v, want the forward gate", gs)
	}
	// A reader planning against dst must see the in-flight gate.
	parts, err := d.ReadPlan(rdr, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p.Holder == dst && !containsGate(p.Gates, fg) {
			t.Fatal("read plan from dst missing the in-flight forward gate")
		}
	}

	// Failure settles the gate and revokes the optimistic claim.
	d.SettleForward(dst, 0, 512, fg, false)
	if _, hs, _ := stateAt(d, 100); hs[dst] != Invalid {
		t.Fatalf("failed forward left dst=%v", hs[dst])
	}
	if gs := d.InboundGates(dst, 0, 512); len(gs) != 0 {
		t.Fatalf("failed forward left inbound gates %v", gs)
	}

	// Success keeps the claim.
	fg2 := &tGate{name: "fwd2"}
	d.ValidateForward(src, dst, 0, 512, fg2, &tGate{name: "rd2"})
	fg2.settled = true
	d.SettleForward(dst, 0, 512, fg2, true)
	if _, hs, _ := stateAt(d, 100); hs[dst] != Shared {
		t.Fatalf("successful forward left dst=%v", hs[dst])
	}

	// DisownInbound hands the gate to the caller exactly once.
	fg3 := &tGate{name: "fwd3"}
	d.ValidateForward(src, dst, 512, 1024, fg3, &tGate{name: "rd3"})
	if stale := d.DisownInbound(dst, 512, 1024); len(stale) != 1 || stale[0] != fg3 {
		t.Fatalf("DisownInbound = %v, want the pending gate", stale)
	}
	if stale := d.DisownInbound(dst, 512, 1024); len(stale) != 0 {
		t.Fatalf("second DisownInbound = %v, want none", stale)
	}
	// A disowned gate's failure must not revoke the claim it no longer owns.
	d.SettleForward(dst, 512, 1024, fg3, false)
	if _, hs, _ := stateAt(d, 700); hs[dst] != Shared {
		t.Fatalf("disowned gate revoked the claim: dst=%v", hs[dst])
	}
}

// TestWriteOnForwardSourceWaitsForOutboundRead: a forward's source read
// rides the source's coherence queue, which no other queue is ordered
// with, so a later write to the range on the source must be handed the
// read's gate — or the payload could carry the later data to a consumer
// that was enqueued before it (write-after-read).
func TestWriteOnForwardSourceWaitsForOutboundRead(t *testing.T) {
	src := &tHolder{name: "src"}
	dst := &tHolder{name: "dst"}
	third := &tHolder{name: "third"}
	d := New(1, 1024, src, dst, third)
	d.Claim(src, 0, 1024, &tGate{name: "w", settled: true})

	fg, rd := &tGate{name: "fwd"}, &tGate{name: "read"}
	d.ValidateForward(src, dst, 0, 512, fg, rd)
	if gs := d.WriteGates(src, 256, 768); len(gs) != 1 || gs[0] != rd {
		t.Fatalf("WriteGates on the forward's source = %v, want the outbound read", gs)
	}
	if gs := d.WriteGates(dst, 0, 512); len(gs) != 1 || gs[0] != fg {
		t.Fatalf("WriteGates on the forward's target = %v, want the inbound gate", gs)
	}
	if gs := d.WriteGates(src, 512, 1024); len(gs) != 0 {
		t.Fatalf("WriteGates outside the forwarded range = %v, want none", gs)
	}
	// The claim the gated write makes does not retire the read: a second
	// writer behind it must wait too.
	d.Claim(src, 0, 512, &tGate{name: "w2"})
	if gs := d.WriteGates(src, 0, 512); len(gs) != 1 || gs[0] != rd {
		t.Fatalf("WriteGates after the first gated write = %v, want the outbound read", gs)
	}

	// A later read of the same copy (same in-order coherence queue)
	// supersedes the earlier one; retiring the superseded gate is a no-op.
	fg2, rd2 := &tGate{name: "fwd2"}, &tGate{name: "read2"}
	d.ValidateForward(src, third, 0, 256, fg2, rd2)
	d.RetireOutbound(src, 0, 512, rd)
	if gs := d.WriteGates(src, 0, 256); len(gs) != 1 || gs[0] != rd2 {
		t.Fatalf("WriteGates after a second forward = %v, want its read", gs)
	}
	if gs := d.WriteGates(src, 256, 512); len(gs) != 0 {
		t.Fatalf("retired read still gates [256,512): %v", gs)
	}
	d.RetireOutbound(src, 0, 256, rd2)
	if gs := d.WriteGates(src, 0, 1024); len(gs) != 0 {
		t.Fatalf("WriteGates after both reads retired = %v, want none", gs)
	}

	// A dead source reads nothing any more.
	d.ValidateForward(src, dst, 512, 1024, &tGate{name: "fwd3"}, &tGate{name: "read3"})
	src.down = true
	if gs := d.WriteGates(src, 0, 1024); len(gs) != 0 {
		t.Fatalf("WriteGates after the source died = %v, want none", gs)
	}
}

// TestReadPlanStitch: disjoint Modified owners produce one part per
// owner, preferring the reader's own copy where valid.
func TestReadPlanStitch(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 1024, a, b)
	d.Claim(a, 0, 512, &tGate{name: "ga", settled: true})
	d.Claim(b, 512, 1024, &tGate{name: "gb", settled: true})

	parts, err := d.ReadPlan(a, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].Holder != a || parts[1].Holder != b ||
		parts[0].End != 512 || parts[1].Off != 512 {
		t.Fatalf("stitched plan = %+v", parts)
	}
	// Whole range valid on the reader: nil plan means plain single read.
	d.Claim(a, 0, 1024, &tGate{name: "gc", settled: true})
	if parts, err := d.ReadPlan(a, 0, 1024); err != nil || parts != nil {
		t.Fatalf("local plan = %v, %v; want nil, nil", parts, err)
	}
	// No valid copy anywhere is the hard error.
	d.ForceInvalidate(0, 1024)
	if _, err := d.ReadPlan(a, 0, 1024); cl.CodeOf(err) != cl.InvalidMemObject {
		t.Fatalf("no-copy plan error = %v, want InvalidMemObject", err)
	}
	// A dead holder's only copy reads as DataLost until it comes back.
	d2 := New(2, 256, a, b)
	d2.Claim(b, 0, 256, &tGate{name: "gd", settled: true})
	b.down = true
	defer func() { b.down = false }()
	if _, err := d2.ReadPlan(a, 0, 256); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("dead-holder plan error = %v, want DataLost", err)
	}
}

func TestProbeAt(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 1024, a, b)
	g := &tGate{name: "g"}
	d.Claim(a, 0, 512, g)

	p := d.ProbeAt(b, 0, 1024)
	if p.ValidHere || p.Src != a || p.SrcGate != g || p.End != 512 || p.HostValid {
		t.Fatalf("probe of A's claim from B = %+v", p)
	}
	p = d.ProbeAt(a, 0, 1024)
	if !p.ValidHere || p.Inbound != nil {
		t.Fatalf("probe of own claim = %+v", p)
	}
	p = d.ProbeAt(b, 512, 1024)
	if p.ValidHere || !p.HostValid || p.End != 1024 {
		t.Fatalf("probe of host range = %+v", p)
	}
}

// TestClaimAllocsGate pins what an optimistic claim costs on the eager
// path: a Claim of one span allocates its snapshot (the span slice and
// one copy of the span's per-holder entries) and nothing else.
func TestClaimAllocsGate(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 4096, a, b)
	g := &tGate{name: "w"}
	d.Claim(a, 0, 4096, g) // the entry for a's gate exists from here on
	allocs := testing.AllocsPerRun(200, func() { d.Claim(a, 0, 4096, g) })
	t.Logf("one-span Claim: %.1f allocs", allocs)
	const ceiling = 2
	if allocs > ceiling {
		t.Fatalf("one-span Claim allocates %.1f objects, gate is %d", allocs, ceiling)
	}
	if d.SpanCount() != 1 {
		t.Fatalf("repeated whole-buffer claims left %d spans", d.SpanCount())
	}
}
