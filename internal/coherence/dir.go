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
// compared by identity (==), so implementations must be pointers.
type Holder interface {
	// Alive reports whether the holder's connection is up. Dead holders
	// are never offered as transfer sources: between a server dying and
	// the directory sweep clearing its claims, a transfer must not be
	// pointed at a dead daemon when a surviving holder exists.
	Alive() bool
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

// entry is one holder's record in a span: the state of its copy and the
// three gates that order transfers touching it. listed tells whether the
// holder is in the span's state table at all — New lists every holder it
// is given, SweepServer drops the swept one — which is what Regions
// reports; an unlisted holder reads as Invalid, like a listed Invalid one.
// An entry with nothing to say (unlisted, no gate) is dropped by merge.
type entry struct {
	h         Holder
	st        State
	listed    bool
	lastWrite Gate // most recent writing command on the holder
	inbound   Gate // in-flight forward landing on the holder
	outbound  Gate // in-flight forward reading the holder's copy
}

// empty reports whether the entry says nothing: unlisted and ungated.
func (e *entry) empty() bool {
	return !e.listed && e.lastWrite == nil && e.inbound == nil && e.outbound == nil
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

	// Lost bookkeeping: when the range's ONLY valid copy lived on a
	// holder whose connection died, lostFrom records that holder,
	// lostWas the state it held and lostConn the connection generation
	// that died with it. Reads of a lost range fail with cl.DataLost
	// until a write re-materializes it; a session re-attach that finds
	// the daemon still retaining its state restores the recorded claim
	// (the bytes never left the daemon) — but only when the retained
	// session is the SAME connection the loss was recorded against
	// (lostConn), so a loss that survived an unretained reattach (data
	// truly gone) can never be "restored" into garbage by a later
	// retained one. A loss recorded by the rollback of a failed command
	// (lostWas Invalid) is never restored: that command may have written
	// the copy.
	lostFrom Holder
	lostWas  State
	lostConn uint64
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

// set lists h with state st.
func (sp *span) set(h Holder, st State) {
	e := sp.at(h)
	e.st, e.listed = st, true
}

// sameStates reports whether two spans carry identical coherence state
// (merge predicate; gates compare by identity, an absent entry equals an
// unlisted ungated one).
func (sp *span) sameStates(o *span) bool {
	if sp.host != o.host || sp.lostFrom != o.lostFrom || sp.lostWas != o.lostWas || sp.lostConn != o.lostConn {
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

// sameAs compares state and gates, not the holder or its listing.
func (e *entry) sameAs(o *entry) bool {
	return e.st == o.st && e.lastWrite == o.lastWrite && e.inbound == o.inbound && e.outbound == o.outbound
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
// so any valid copy must be usable as a source. Dead holders are never
// offered.
func (sp *span) source() Holder {
	var shared Holder
	for i := range sp.ents {
		e := &sp.ents[i]
		if e.st == Invalid || !e.h.Alive() {
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

// deadHolder reports whether a dead holder still holds a valid-looking
// claim on the span: the window between a server dying and its directory
// sweep recording lostFrom. Callers translate "no valid copy" into the
// retryable cl.ServerLost in that window instead of the hard
// cl.InvalidMemObject — the range's true fate (re-home or Lost) is
// decided by the sweep, moments away.
func (sp *span) deadHolder() bool {
	for i := range sp.ents {
		if sp.ents[i].st != Invalid && !sp.ents[i].h.Alive() {
			return true
		}
	}
	return false
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
		whole.set(h, Invalid)
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
// copy that died with its daemon.
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
	for _, sp := range spans {
		for i := range sp.ents {
			sp.ents[i].st = Invalid
		}
		e := sp.at(h)
		e.st, e.listed, e.lastWrite = Modified, true, write
		sp.host = Invalid
		sp.lostFrom = nil
		sp.lostWas = Invalid
		sp.lostConn = 0
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
// have scribbled on it — and a span where it was the only valid copy is
// Lost, for good: no re-attach restores a copy the failed command may
// have written. A dead holder's claim is left to its sweep, which records
// the loss the same way whether it runs before the rollback or after.
func (d *Dir) RollbackClaim(h Holder, write Gate, off, end int, gen uint64, snap Snapshot) {
	if !h.Alive() {
		return
	}
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
// records the span Lost, with nothing to restore (lostWas Invalid), when
// that took its last valid copy.
func (sp *span) dropFailed(e *entry) {
	had := e.st
	e.st, e.listed = Invalid, true
	if had != Invalid && !sp.valid() {
		sp.lostFrom, sp.lostWas, sp.lostConn = e.h, Invalid, 0
	}
}

// valid reports whether some copy of the span, host or holder, is valid.
func (sp *span) valid() bool {
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
	for _, sp := range spans {
		sp.set(h, Shared)
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
	for _, sp := range spans {
		if i := sp.find(src); i >= 0 && sp.ents[i].st == Modified {
			sp.ents[i].st = Shared
		}
		e := sp.at(dst)
		e.st, e.listed, e.lastWrite, e.inbound = Shared, true, gate, gate
		sp.at(src).outbound = read
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
// caller then cancels the superseded forwards at the daemon.
func (d *Dir) DisownInbound(h Holder, off, end int) []Gate {
	var stale []Gate
	spans := d.rangeSpans(off, end)
	for _, sp := range spans {
		if i := sp.find(h); i >= 0 && sp.ents[i].inbound != nil {
			g := sp.ents[i].inbound
			sp.ents[i].inbound = nil
			if !containsGate(stale, g) {
				stale = append(stale, g)
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
		if g := sp.get(h).inbound; g != nil && !containsGate(gates, g) {
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
		for _, g := range [2]Gate{e.inbound, e.outbound} {
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

// SweepServer sweeps the directory after h's connection died (connGen is
// the connection generation that died): every claim h held is withdrawn.
// Ranges with a surviving valid copy (another holder or the host cache)
// keep working — the next coherence transfer re-homes them from the
// survivor. Ranges whose ONLY valid copy was h's become Lost: reads fail
// with cl.DataLost until a write re-materializes them, and the vanished
// claim is recorded so a re-attach that finds the daemon still retaining
// its session state can Restore it (the bytes never left the daemon).
func (d *Dir) SweepServer(h Holder, connGen uint64) {
	for _, sp := range d.spans {
		i := sp.find(h)
		if i < 0 {
			continue
		}
		had := sp.ents[i].st
		sp.ents = slices.Delete(sp.ents, i, i+1)
		if had != Invalid && !sp.valid() {
			sp.lostFrom = h
			sp.lostWas = had
			sp.lostConn = connGen
		}
	}
	d.bump(d.spans)
	d.merge()
}

// Restore re-installs the claims that were recorded as lost from h,
// after a session re-attach confirmed the daemon retained its state: the
// remote buffer still holds exactly the bytes the directory thought were
// gone. Only losses recorded against wantConn — the connection the
// retained session lived on — are restorable: a loss that already
// survived an UNRETAINED reattach (data gone for good) must keep reading
// as DataLost, never as the re-created buffer's zeros. Nothing is
// restored onto a holder that is dead again: the next connection died
// before the restore ran and its sweep, finding no claim of h, recorded
// nothing — re-installing the claim now would leave a valid-looking copy
// on a dead daemon that no sweep will ever withdraw.
func (d *Dir) Restore(h Holder, wantConn uint64) {
	if !h.Alive() {
		return
	}
	touched := false
	for _, sp := range d.spans {
		if sp.lostFrom != h || sp.lostConn != wantConn || sp.lostWas == Invalid {
			continue
		}
		sp.set(h, sp.lostWas)
		sp.lostFrom = nil
		sp.lostWas = Invalid
		sp.lostConn = 0
		touched = true
	}
	if touched {
		d.bump(d.spans)
		d.merge()
	}
}

// ---------------------------------------------------------------------------
// Queries.

// Probe describes the span containing one position, for the incremental
// make-range-valid walk. The probe never splits the directory.
type Probe struct {
	End        int    // span end clamped to the probe's range
	ValidHere  bool   // the reader already holds a valid (S/M) copy
	Inbound    Gate   // reader's in-flight inbound gate, nil when none
	HostValid  bool   // the host copy of the span is valid
	Src        Holder // a live holder with a valid copy, nil when none
	SrcGate    Gate   // src's last-write gate, nil when none
	Lost       bool   // only valid copy died with its daemon
	DeadHolder bool   // a dead holder still holds a valid-looking claim
	Gen        uint64 // span generation when probed (staleness ticket)
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
	if e := sp.get(reader); e.st != Invalid {
		p.ValidHere = true
		p.Inbound = e.inbound
		return p
	}
	p.HostValid = sp.host != Invalid
	p.Src = sp.source()
	p.Lost = sp.lostFrom != nil
	if !p.HostValid && p.Src == nil && !p.Lost {
		p.DeadHolder = sp.deadHolder()
	}
	if p.Src != nil {
		p.SrcGate = sp.get(p.Src).lastWrite
	}
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
		case sp.get(reader).st != Invalid:
			part.Holder = reader
		default:
			allLocal = false
			holder := sp.source()
			if holder == nil {
				if sp.host == Invalid {
					if sp.lostFrom != nil {
						return nil, cl.Errf(cl.DataLost, "buffer %d range [%d,%d): only valid copy died with its daemon", d.id, sp.off, sp.end)
					}
					if sp.deadHolder() {
						return nil, cl.Errf(cl.ServerLost, "buffer %d range [%d,%d): holder's connection just died (sweep pending)", d.id, sp.off, sp.end)
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
			if g := e.inbound; g != nil {
				part.Gates = append(part.Gates, g)
			}
			if part.Holder != reader {
				// The read runs on the holder's coherence queue, which is
				// not the queue the producing write ran on: gate on it.
				if g := e.lastWrite; g != nil && !containsGate(part.Gates, g) {
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

// Region describes one directory span clamped to a query range.
type Region struct {
	Off, End int
	Host     State
	Holders  map[Holder]State
	Lost     bool // only valid copy died with its daemon
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
		r := Region{Off: so, End: se, Host: sp.host, Holders: make(map[Holder]State, len(sp.ents)), Lost: sp.lostFrom != nil}
		for _, e := range sp.ents {
			if e.listed {
				r.Holders[e.h] = e.st
			}
		}
		out[i] = r
	}
	return out
}

// LostRanges reports the byte ranges within [off, end) whose only valid
// copy died with its daemon, adjacent ranges joined.
func (d *Dir) LostRanges(off, end int) [][2]int {
	var out [][2]int
	for _, sp := range d.overlapping(off, end) {
		if sp.lostFrom == nil {
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
