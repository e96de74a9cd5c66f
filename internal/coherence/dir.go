package coherence

import (
	"slices"
	"strconv"
	"strings"

	"dopencl/internal/cl"
)

// State is the coherence state of one cached buffer-region copy
// (Section III-D: directory-based MSI with the client's stub as
// directory and the remote buffers as caches).
type State int

// MSI states.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// Holder identifies one remote cache (a daemon connection). Holders are
// compared by identity (==), so implementations must be pointers. A holder
// that can lose its copies reports its Incarnation (Incarnated); one that
// does not is always up, in one incarnation.
type Holder any

// Incarnation is one reading of a holder's connection: the connection it
// is on, the epoch of its daemon-side state and whether it is up. Every
// entry of the directory is stamped with the incarnation its state and
// gates were set under, and every read derives validity from the stamp:
//   - a copy counts while its holder is up and still in the epoch the copy
//     was made in (a re-attach that finds the daemon's session gone, or
//     the end of the lease, starts a new one);
//   - a gate gates while its holder is up and on the connection the gate
//     was recorded on: the daemon clears its event table with a
//     connection.
type Incarnation struct {
	Conn, Epoch uint64
	Up          bool
}

// Incarnated is a Holder that reports its incarnation. The directory reads
// it per entry on every query, so it must be one lock-free load.
type Incarnated interface {
	Incarnation() Incarnation
}

// incarnation returns h's incarnation now.
func incarnation(h Holder) Incarnation {
	if i, ok := h.(Incarnated); ok {
		return i.Incarnation()
	}
	return Incarnation{Up: true}
}

// Gate is a completion-gated event guarding a span: the most recent
// writing command of a holder, an in-flight inbound forward, or the
// source read of an in-flight outbound one. Gates are compared by
// identity.
type Gate interface {
	// Settled reports whether the gate has completed successfully. A
	// settled write gates nothing, so merging drops it — keeping it
	// would pin span boundaries forever.
	Settled() bool
}

// entry is one holder's record in a span: the state of its copy, the
// incarnation stamp it was set under and the three gates that order
// transfers touching it. listed tells whether the holder is in the span's
// state table at all — New lists every holder it is given, a state change
// lists its holder — which is what Regions reports; an unlisted holder
// reads as Invalid, like a listed Invalid one. An entry with nothing to
// say (unlisted, not failed, no gate) is dropped by merge.
type entry struct {
	h         Holder
	st        State
	listed    bool
	failed    bool   // a failed command dropped the range's last copy here
	conn      uint64 // holder connection the gates were recorded on
	epoch     uint64 // holder epoch the copy was made in
	lastWrite Gate   // most recent writing command on the holder
	inbound   Gate   // in-flight forward landing on the holder
	outbound  Gate   // in-flight forward reading the holder's copy
}

// empty reports whether the entry says nothing: unlisted, not failed and
// ungated.
func (e *entry) empty() bool {
	return !e.listed && !e.failed && e.lastWrite == nil && e.inbound == nil && e.outbound == nil
}

// counts reports whether e's copy is valid now: held, with its holder up
// and still in the epoch the copy was made in.
func (e *entry) counts() bool {
	if e.st == Invalid {
		return false
	}
	inc := incarnation(e.h)
	return inc.Up && inc.Epoch == e.epoch
}

// gate returns g, one of e's gates, while it still gates: its holder is
// up and on the connection g was recorded on. nil otherwise.
func (e *entry) gate(g Gate) Gate {
	if g != nil {
		if inc := incarnation(e.h); inc.Up && inc.Conn == e.conn {
			return g
		}
	}
	return nil
}

// stamp readies e for a write under inc: gates recorded on an earlier
// connection gate nothing and are dropped, and e moves to inc's.
func (e *entry) stamp(inc Incarnation) {
	if e.conn != inc.Conn {
		e.lastWrite, e.inbound, e.outbound = nil, nil, nil
		e.conn = inc.Conn
	}
}

// hold lists e's holder with a copy in state st, made under inc.
func (e *entry) hold(st State, inc Incarnation) {
	e.stamp(inc)
	e.st, e.listed, e.epoch = st, true, inc.Epoch
}

// span is one interval of the region directory: a maximal byte range
// [off, end) over which every copy (host and per-holder) has a uniform
// coherence state.
//
// Invariants (checked by tests, per span):
//   - at most one copy (host or any holder) is Modified;
//   - if some copy is Modified, every other copy is Invalid.
type span struct {
	off, end int
	host     State
	ents     []entry // one per holder with a state or a gate, at most one per holder
	gen      uint64  // directory generation of the span's last mutation
}

// copy returns the span by value with its own entry slice (snapshots for
// rollbacks, the right half of a split).
func (sp *span) copy() span {
	c := *sp
	c.ents = slices.Clone(sp.ents)
	return c
}

// clone deep-copies the span.
func (sp *span) clone() *span {
	c := sp.copy()
	return &c
}

// find returns the index of h's entry, -1 when it has none.
func (sp *span) find(h Holder) int {
	for i := range sp.ents {
		if sp.ents[i].h == h {
			return i
		}
	}
	return -1
}

// noEntry is what a holder without an entry reads as: unlisted, Invalid,
// ungated. Never written.
var noEntry entry

// get returns h's entry for reading, &noEntry when it has none.
func (sp *span) get(h Holder) *entry {
	if i := sp.find(h); i >= 0 {
		return &sp.ents[i]
	}
	return &noEntry
}

// at returns h's entry for update, adding an empty one when it has none.
// The pointer is good until the next at on the span.
func (sp *span) at(h Holder) *entry {
	if i := sp.find(h); i >= 0 {
		return &sp.ents[i]
	}
	sp.ents = append(sp.ents, entry{h: h})
	return &sp.ents[len(sp.ents)-1]
}

// sameStates reports whether two spans carry identical coherence state
// (merge predicate; gates compare by identity, an absent entry equals an
// unlisted ungated one).
func (sp *span) sameStates(o *span) bool {
	if sp.host != o.host {
		return false
	}
	for i := range sp.ents {
		if !sp.ents[i].sameAs(o.get(sp.ents[i].h)) {
			return false
		}
	}
	for i := range o.ents {
		if sp.find(o.ents[i].h) < 0 && !o.ents[i].sameAs(&noEntry) {
			return false
		}
	}
	return true
}

// sameAs reports whether two entries read the same under every
// incarnation their holder may have: state, failure and gates alike, the
// epoch where there is a copy and the connection where there is a gate.
// It does not compare the holder or its listing.
func (e *entry) sameAs(o *entry) bool {
	if e.st != o.st || e.failed != o.failed || e.lastWrite != o.lastWrite || e.inbound != o.inbound || e.outbound != o.outbound {
		return false
	}
	gated := e.lastWrite != nil || e.inbound != nil || e.outbound != nil
	return (e.st == Invalid || e.epoch == o.epoch) && (!gated || e.conn == o.conn)
}

// settle drops the span's settled write gates, then the entries left
// saying nothing.
func (sp *span) settle() {
	drop := false
	for i := range sp.ents {
		e := &sp.ents[i]
		if e.lastWrite != nil && e.lastWrite.Settled() {
			e.lastWrite = nil
		}
		drop = drop || e.empty()
	}
	if drop {
		sp.ents = slices.DeleteFunc(sp.ents, func(e entry) bool { return e.empty() })
	}
}

// source returns a holder with a valid copy of the span, preferring the
// Modified owner. With peer forwarding, Shared holder copies can exist
// while the host copy is Invalid (the payload never visited the client),
// so any valid copy must be usable as a source. A copy that does not count
// (its holder is down or lost its state) is never offered.
func (sp *span) source() Holder {
	var shared Holder
	for i := range sp.ents {
		e := &sp.ents[i]
		if !e.counts() {
			continue
		}
		if e.st == Modified {
			return e.h
		}
		if shared == nil {
			shared = e.h
		}
	}
	return shared
}

// lost reports whether the span, if it has no valid copy, lost one: a
// holder's copy that stopped counting (the holder is down, or lost its
// daemon-side state), or the copy a failed command dropped. Reads of a
// lost range fail with cl.DataLost until a write re-materializes it; a
// range that never had a copy is the hard cl.InvalidMemObject.
func (sp *span) lost() bool {
	for i := range sp.ents {
		if sp.ents[i].failed || sp.ents[i].st != Invalid {
			return true
		}
	}
	return false
}

// readsLost reports whether a read of the span fails with cl.DataLost: no
// copy counts, host or holder, and one was lost.
func (sp *span) readsLost() bool {
	return sp.host == Invalid && sp.source() == nil && sp.lost()
}

// Dir is the region directory of one buffer. A Dir performs no locking:
// the owning buffer serializes all calls (see the package doc).
type Dir struct {
	id    uint64 // owning buffer's ID, for error text
	size  int
	spans []*span
	gen   uint64
}

// New creates the directory for a buffer of the given size: one span
// covering the whole buffer with the host copy Shared (the client's
// conceptual copy, Section III-D) and every listed holder Invalid.
func New(id uint64, size int, holders ...Holder) *Dir {
	whole := &span{off: 0, end: size, host: Shared, ents: make([]entry, 0, len(holders))}
	for _, h := range holders {
		whole.at(h).listed = true
	}
	return &Dir{id: id, size: size, spans: []*span{whole}}
}

// Generation returns the global mutation counter (sampled by in-flight
// reads to detect racing directory mutations).
func (d *Dir) Generation() uint64 { return d.gen }

// ---------------------------------------------------------------------------
// Primitives.

// spanIndex returns the index of the span containing pos.
func (d *Dir) spanIndex(pos int) int {
	for i, sp := range d.spans {
		if pos < sp.end {
			return i
		}
	}
	return len(d.spans) - 1
}

// ensureBoundary splits the span containing pos so that pos is a span
// boundary (no-op when it already is, or at the buffer edges).
func (d *Dir) ensureBoundary(pos int) {
	if pos <= 0 || pos >= d.size {
		return
	}
	i := d.spanIndex(pos)
	sp := d.spans[i]
	if sp.off == pos {
		return
	}
	right := sp.clone()
	right.off = pos
	sp.end = pos
	d.spans = append(d.spans, nil)
	copy(d.spans[i+2:], d.spans[i+1:])
	d.spans[i+1] = right
}

// rangeSpans splits at off and end and returns the spans exactly
// covering [off, end).
func (d *Dir) rangeSpans(off, end int) []*span {
	d.ensureBoundary(off)
	d.ensureBoundary(end)
	var i int
	for i = 0; i < len(d.spans); i++ {
		if d.spans[i].off >= off {
			break
		}
	}
	j := i
	for j < len(d.spans) && d.spans[j].end <= end {
		j++
	}
	return d.spans[i:j]
}

// bump advances the global mutation counter and stamps the given
// (just-mutated) spans with it.
func (d *Dir) bump(spans []*span) {
	d.gen++
	for _, sp := range spans {
		sp.gen = d.gen
	}
}

// RangeGeneration returns the newest mutation stamp over [off, end).
// Content-addressed caches snapshot it per input range: a later write
// anywhere in the range advances the stamp, invalidating every cached
// result derived from the old bytes. Callers hold the buffer lock like
// for every other directory operation.
func (d *Dir) RangeGeneration(off, end int) uint64 { return d.rangeGen(off, end) }

// rangeGen returns the newest mutation stamp over [off, end).
func (d *Dir) rangeGen(off, end int) uint64 {
	var g uint64
	for _, sp := range d.rangeSpans(off, end) {
		if sp.gen > g {
			g = sp.gen
		}
	}
	return g
}

// merge coalesces adjacent spans with identical coherence state. Gating
// events that have already settled are dropped first — a settled write
// gates nothing, and keeping it would pin span boundaries forever (two
// ranges written by different commands could otherwise never re-merge).
func (d *Dir) merge() {
	for _, sp := range d.spans {
		sp.settle()
	}
	if len(d.spans) < 2 {
		return
	}
	out := d.spans[:1]
	for _, sp := range d.spans[1:] {
		last := out[len(out)-1]
		if last.sameStates(sp) {
			last.end = sp.end
			if sp.gen > last.gen {
				last.gen = sp.gen
			}
			continue
		}
		out = append(out, sp)
	}
	d.spans = out
}

// overlapping returns the spans intersecting [off, end) WITHOUT
// splitting: introspection must never mutate the directory.
func (d *Dir) overlapping(off, end int) []*span {
	var out []*span
	for _, sp := range d.spans {
		if sp.end > off && sp.off < end {
			out = append(out, sp)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Transitions.

// Snapshot is an opaque deep copy of the spans covering a range, taken
// by Claim before its mutation so RollbackClaim can splice it back.
type Snapshot struct {
	spans []span
}

// Claim records that a command on h writes [off, end): h's copy of the
// range becomes Modified, every other copy of the range (including the
// host's) becomes Invalid; the rest of the buffer is untouched. write is
// the writing command's gate, gating later coherence reads of the range.
// A write also re-materializes a lost range: fresh data supersedes the
// copy that died with its daemon, or that a failed command dropped.
//
// The update is optimistic; Claim returns the range's prior state and
// the post-mutation generation so a deferred command failure can be
// undone with RollbackClaim.
func (d *Dir) Claim(h Holder, off, end int, write Gate) (Snapshot, uint64) {
	spans := d.rangeSpans(off, end)
	snap := Snapshot{spans: make([]span, len(spans))}
	for i, sp := range spans {
		snap.spans[i] = sp.copy()
	}
	inc := incarnation(h)
	for _, sp := range spans {
		for i := range sp.ents {
			sp.ents[i].st, sp.ents[i].failed = Invalid, false
		}
		e := sp.at(h)
		e.hold(Modified, inc)
		e.lastWrite = write
		sp.host = Invalid
	}
	d.bump(spans)
	gen := d.gen
	d.merge()
	return snap, gen
}

// RollbackClaim undoes a Claim whose command failed. The snapshot is
// only spliced back when no other mutation touched the RANGE in between
// (per-span generation check); otherwise the interim state stands and
// only the failed write's own claim is withdrawn. h's copy always drops
// to Invalid in the restored state — a partially executed command may
// have scribbled on it — and a span where it was the only copy in a valid
// state is Lost, for good: no re-attach brings back a copy the failed
// command may have written. The rollback applies whatever h's incarnation
// is now; a command that died with its connection is not rolled back by
// the caller (its claim stands, and counts again if the daemon retained
// the session).
func (d *Dir) RollbackClaim(h Holder, write Gate, off, end int, gen uint64, snap Snapshot) {
	if d.rangeGen(off, end) <= gen {
		d.restoreRange(off, end, snap.spans)
		for _, sp := range d.rangeSpans(off, end) {
			e := sp.at(h)
			if e.lastWrite == write {
				e.lastWrite = nil
			}
			sp.dropFailed(e)
		}
	} else {
		// Interim mutations happened; only withdraw the failed write's
		// own claim wherever it still stands.
		for _, sp := range d.rangeSpans(off, end) {
			if i := sp.find(h); i >= 0 && sp.ents[i].lastWrite == write {
				e := &sp.ents[i]
				e.lastWrite = nil
				sp.dropFailed(e)
			}
		}
	}
	d.bump(d.rangeSpans(off, end))
	d.merge()
}

// dropFailed lists e's holder Invalid after a command on it failed, and
// marks it failed — the span reads Lost until a write — when that took the
// span's last copy in a valid state.
func (sp *span) dropFailed(e *entry) {
	had := e.st
	e.st, e.listed = Invalid, true
	if had != Invalid && !sp.held() {
		e.failed = true
	}
}

// held reports whether some copy of the span, host or holder, is in a
// valid state, whether or not it counts now.
func (sp *span) held() bool {
	if sp.host != Invalid {
		return true
	}
	for i := range sp.ents {
		if sp.ents[i].st != Invalid {
			return true
		}
	}
	return false
}

// restoreRange splices a snapshot back over [off, end). Only safe when
// the directory generation is unchanged since the snapshot (the caller
// checks), so boundaries line up exactly.
func (d *Dir) restoreRange(off, end int, snap []span) {
	d.ensureBoundary(off)
	d.ensureBoundary(end)
	var i int
	for i = 0; i < len(d.spans); i++ {
		if d.spans[i].off >= off {
			break
		}
	}
	j := i
	for j < len(d.spans) && d.spans[j].end <= end {
		j++
	}
	out := make([]*span, 0, len(d.spans)-(j-i)+len(snap))
	out = append(out, d.spans[:i]...)
	for k := range snap {
		out = append(out, snap[k].clone())
	}
	out = append(out, d.spans[j:]...)
	d.spans = out
}

// Validate records an optimistic Shared claim for h over [off, end)
// (the client-mediated upload path: the payload is being shipped on h's
// own in-order queue).
func (d *Dir) Validate(h Holder, off, end int) {
	spans := d.rangeSpans(off, end)
	inc := incarnation(h)
	for _, sp := range spans {
		sp.at(h).hold(Shared, inc)
	}
	d.bump(spans)
	d.merge()
}

// Invalidate revokes h's Shared claim over [off, end) (deferred upload
// failure: the daemon never received the data). Modified claims are
// deliberately not touched — a false-valid copy is revoked, a genuinely
// newer write is not.
func (d *Dir) Invalidate(h Holder, off, end int) {
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		if i := sp.find(h); i >= 0 && sp.ents[i].st == Shared {
			sp.ents[i].st = Invalid
		}
	}
	d.bump(spans)
	d.merge()
}

// InvalidateHost drops the host copy over [off, end) to Invalid (test
// support: forcing the peer-forward path).
func (d *Dir) InvalidateHost(off, end int) {
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		sp.host = Invalid
	}
	d.bump(spans)
	d.merge()
}

// ForceInvalidate drops EVERY copy of [off, end) — host and all holders
// — to Invalid (test support: wedging the directory to exercise the
// no-valid-copy error paths).
func (d *Dir) ForceInvalidate(off, end int) {
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		sp.host = Invalid
		for i := range sp.ents {
			sp.ents[i].st = Invalid
		}
	}
	d.bump(spans)
	d.merge()
}

// ValidateHost records that the host now holds valid data for
// [off, end) after a coherence download: the range's Modified owner
// drops to Shared, the host range becomes Shared. The record only
// happens when no directory mutation touched the range since gen was
// sampled (per-span staleness: mutations on disjoint ranges do not
// disqualify the snapshot); it reports whether the transition was
// applied — the caller installs the downloaded bytes only then.
func (d *Dir) ValidateHost(off, end int, gen uint64) bool {
	if d.rangeGen(off, end) > gen {
		return false
	}
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		for i := range sp.ents {
			if sp.ents[i].st == Modified {
				sp.ents[i].st = Shared
			}
		}
		sp.host = Shared
	}
	d.bump(spans)
	d.merge()
	return true
}

// ValidateForward records an in-flight peer forward of [off, end) from
// src to dst: src's read downgrades M→S, dst gains a Shared copy gated
// on the transfer (gate rides both lastWrite and inbound); the host copy
// is untouched (the payload never visits the client). read is the
// forward's source-side event: until RetireOutbound, a command that
// overwrites the range on src must wait for it (WriteGates). It replaces
// an earlier outbound read of src's copy — source reads ride src's one
// in-order coherence queue, so the later one completing implies the
// earlier one has.
func (d *Dir) ValidateForward(src, dst Holder, off, end int, gate, read Gate) {
	spans := d.rangeSpans(off, end)
	si, di := incarnation(src), incarnation(dst)
	for _, sp := range spans {
		if i := sp.find(src); i >= 0 && sp.ents[i].st == Modified {
			sp.ents[i].st = Shared
		}
		e := sp.at(dst)
		e.hold(Shared, di)
		e.lastWrite, e.inbound = gate, gate
		e = sp.at(src)
		e.stamp(si)
		e.outbound = read
	}
	d.bump(spans)
	d.merge()
}

// SettleForward retires a forward's gate over [off, end) in ONE critical
// section: a gap between gate removal and state rollback would let a
// concurrent read observe "Shared, no gate" and run ungated against a
// failed transfer. The rollback only runs where this gate still owns
// dst's claim (inbound entry intact) — once a successor transfer or
// upload has re-validated part of the range, revoking its fresh Shared
// state would just force a redundant re-transfer.
func (d *Dir) SettleForward(dst Holder, off, end int, gate Gate, ok bool) {
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		i := sp.find(dst)
		if i < 0 || sp.ents[i].inbound != gate {
			continue
		}
		e := &sp.ents[i]
		e.inbound = nil
		if !ok {
			if e.st == Shared {
				e.st = Invalid
			}
			if e.lastWrite == gate {
				e.lastWrite = nil
			}
		}
	}
	d.bump(spans)
	d.merge()
}

// RetireOutbound drops read as the in-flight outbound read of src's copy
// over [off, end), once the forward's source-side event has completed
// (either way: a failed forward reads nothing any more).
func (d *Dir) RetireOutbound(src Holder, off, end int, read Gate) {
	spans := d.rangeSpans(off, end)
	retired := false
	for _, sp := range spans {
		if i := sp.find(src); i >= 0 && sp.ents[i].outbound == read {
			sp.ents[i].outbound = nil
			retired = true
		}
	}
	if retired {
		d.bump(spans)
		d.merge()
	}
}

// DisownInbound disassociates the pending inbound gates toward h over
// [off, end) and returns them (distinct, in span order). The upload path
// calls this before claiming the range: the upload is about to own h's
// claim, and the old gates' failure callbacks must not revoke it — the
// caller then cancels the superseded forwards at the daemon. Only gates
// that still gate are disowned: those of a down holder stay, so that
// their failure revokes the copies their transfers never finished (the
// upload cannot be sent to it either).
func (d *Dir) DisownInbound(h Holder, off, end int) []Gate {
	var stale []Gate
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		if i := sp.find(h); i >= 0 {
			e := &sp.ents[i]
			if g := e.gate(e.inbound); g != nil {
				e.inbound = nil
				if !containsGate(stale, g) {
					stale = append(stale, g)
				}
			}
		}
	}
	if len(stale) > 0 {
		d.bump(spans)
	}
	return stale
}

// InboundGates returns the distinct pending inbound-forward gates toward
// h over [off, end). A command that reads h's copy of the range without
// consulting the validity probe must wait on them: the copy may be
// valid-but-in-flight.
func (d *Dir) InboundGates(h Holder, off, end int) []Gate {
	var gates []Gate
	for _, sp := range d.rangeSpans(off, end) {
		e := sp.get(h)
		if g := e.gate(e.inbound); g != nil && !containsGate(gates, g) {
			gates = append(gates, g)
		}
	}
	return gates
}

// WriteGates returns the distinct gates a command on h that overwrites
// [off, end) must wait on: the pending inbound forwards toward h (a
// payload landing outside queue order would clobber the fresher data)
// and the in-flight outbound reads of h's copy (the read rides h's
// coherence queue, ordered after the previous writer but not before this
// one — ungated, the payload could carry this command's data to a
// consumer that was enqueued before it).
func (d *Dir) WriteGates(h Holder, off, end int) []Gate {
	var gates []Gate
	for _, sp := range d.rangeSpans(off, end) {
		e := sp.get(h)
		for _, g := range [2]Gate{e.gate(e.inbound), e.gate(e.outbound)} {
			if g != nil && !containsGate(gates, g) {
				gates = append(gates, g)
			}
		}
	}
	return gates
}

func containsGate(gs []Gate, g Gate) bool {
	for _, x := range gs {
		if x == g {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Queries.

// Probe describes the span containing one position, for the incremental
// make-range-valid walk. The probe never splits the directory.
type Probe struct {
	End       int    // span end clamped to the probe's range
	ValidHere bool   // the reader already holds a valid (S/M) copy
	Inbound   Gate   // reader's in-flight inbound gate, nil when none
	HostValid bool   // the host copy of the span is valid
	Src       Holder // a live holder with a valid copy, nil when none
	SrcGate   Gate   // src's last-write gate, nil when none
	Lost      bool   // no valid copy, and one was lost (reads fail with DataLost)
	Gen       uint64 // span generation when probed (staleness ticket)
}

// ProbeAt inspects the span containing pos for a reader that wants
// [pos, end) valid. When ValidHere is set the reader only needs to gate
// on Inbound (the copy may be valid-but-in-flight: an optimistically
// Shared state whose forwarded payload has not landed yet); otherwise
// the caller transfers [pos, End) using Src/SrcGate/HostValid and
// re-validates against Gen.
func (d *Dir) ProbeAt(reader Holder, pos, end int) Probe {
	sp := d.spans[d.spanIndex(pos)]
	p := Probe{End: sp.end, Gen: sp.gen}
	if p.End > end {
		p.End = end
	}
	if e := sp.get(reader); e.counts() {
		p.ValidHere = true
		p.Inbound = e.gate(e.inbound)
		return p
	}
	p.HostValid = sp.host != Invalid
	p.Src = sp.source()
	if p.Src != nil {
		e := sp.get(p.Src)
		p.SrcGate = e.gate(e.lastWrite)
	}
	p.Lost = !p.HostValid && p.Src == nil && sp.lost()
	return p
}

// Part is one piece of a stitched read plan: read [Off, End) from
// Holder (nil: satisfy from the host copy), gated on Gates.
type Part struct {
	Off, End int
	Holder   Holder
	Gates    []Gate
}

// ReadPlan partitions [off, end) by where a valid copy lives, preferring
// the reader's own copy, then the Modified owner, then any Shared
// holder, then the host copy. It returns nil when the whole range is
// already valid on the reader (the caller then uses the plain
// single-read path), and an error when some sub-range has no valid copy
// anywhere.
//
// This is what stitches the result of a partitioned kernel: a
// whole-buffer read after disjoint per-daemon writes turns into one
// range-read per daemon, each moving only the bytes that daemon owns.
func (d *Dir) ReadPlan(reader Holder, off, end int) ([]Part, error) {
	allLocal := true
	spans := d.rangeSpans(off, end)
	parts := make([]Part, 0, len(spans))
	for _, sp := range spans {
		var part Part
		part.Off, part.End = sp.off, sp.end
		switch {
		case sp.get(reader).counts():
			part.Holder = reader
		default:
			allLocal = false
			holder := sp.source()
			if holder == nil {
				if sp.host == Invalid {
					if sp.lost() {
						return nil, cl.Errf(cl.DataLost, "buffer %d range [%d,%d): its only copy was lost", d.id, sp.off, sp.end)
					}
					return nil, cl.Errf(cl.InvalidMemObject, "buffer %d range [%d,%d) has no valid copy", d.id, sp.off, sp.end)
				}
				part.Holder = nil // host copy
				break
			}
			part.Holder = holder
		}
		if part.Holder != nil {
			e := sp.get(part.Holder)
			if g := e.gate(e.inbound); g != nil {
				part.Gates = append(part.Gates, g)
			}
			if part.Holder != reader {
				// The read runs on the holder's coherence queue, which is
				// not the queue the producing write ran on: gate on it.
				if g := e.gate(e.lastWrite); g != nil && !containsGate(part.Gates, g) {
					part.Gates = append(part.Gates, g)
				}
			}
		}
		// Coalesce with the previous part when the holder matches and the
		// gates agree (common case: merged spans already maximal).
		if n := len(parts); n > 0 && parts[n-1].End == part.Off && parts[n-1].Holder == part.Holder && sameGates(parts[n-1].Gates, part.Gates) {
			parts[n-1].End = part.End
			continue
		}
		parts = append(parts, part)
	}
	if allLocal {
		return nil, nil
	}
	return parts, nil
}

func sameGates(a, b []Gate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Introspection (tests, debugging).

// Region describes one directory span clamped to a query range, as a
// read sees it: a copy that does not count reads as Invalid.
type Region struct {
	Off, End int
	Host     State
	Holders  map[Holder]State
	Lost     bool // no valid copy, and one was lost: reads fail with DataLost
}

// Regions returns the directory spans overlapping [off, end), clamped
// to the range, WITHOUT splitting the directory.
func (d *Dir) Regions(off, end int) []Region {
	spans := d.overlapping(off, end)
	out := make([]Region, len(spans))
	for i, sp := range spans {
		so, se := sp.off, sp.end
		if so < off {
			so = off
		}
		if se > end {
			se = end
		}
		r := Region{Off: so, End: se, Host: sp.host, Holders: make(map[Holder]State, len(sp.ents)), Lost: sp.readsLost()}
		for i := range sp.ents {
			if e := &sp.ents[i]; e.listed {
				st := Invalid
				if e.counts() {
					st = e.st
				}
				r.Holders[e.h] = st
			}
		}
		out[i] = r
	}
	return out
}

// LostRanges reports the byte ranges within [off, end) that read
// DataLost — no copy counts, and one was lost — adjacent ranges joined.
func (d *Dir) LostRanges(off, end int) [][2]int {
	var out [][2]int
	for _, sp := range d.overlapping(off, end) {
		if !sp.readsLost() {
			continue
		}
		so, se := sp.off, sp.end
		if so < off {
			so = off
		}
		if se > end {
			se = end
		}
		if n := len(out); n > 0 && out[n-1][1] == so {
			out[n-1][1] = se
			continue
		}
		out = append(out, [2]int{so, se})
	}
	return out
}

// SpanCount reports how many spans the directory currently holds (the
// adjacent-range merge tests pin that converged regions re-coalesce).
func (d *Dir) SpanCount() int { return len(d.spans) }

// Summarize folds per-span state letters into one string: the letter
// itself when uniform, or a "+"-joined sequence in span order.
func Summarize(letters []string) string {
	uniq := letters[:0:0]
	for _, l := range letters {
		if len(uniq) == 0 || uniq[len(uniq)-1] != l {
			uniq = append(uniq, l)
		}
	}
	return strings.Join(uniq, "+")
}

// DebugString renders the directory: "[0,512)h=M [512,1024)h=I".
func (d *Dir) DebugString() string {
	var sb strings.Builder
	for _, r := range d.Regions(0, d.size) {
		sb.WriteString("[" + strconv.Itoa(r.Off) + "," + strconv.Itoa(r.End) + ")h=" + r.Host.String() + " ")
	}
	return sb.String()
}
