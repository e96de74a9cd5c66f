package client

import (
	"crypto/rand"
	"encoding/binary"
	"math"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/coherence"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// Buffer is the compound stub for a distributed buffer object. The
// region-granular MSI directory itself lives in internal/coherence;
// this file is the thin adapter that owns the lock, the host byte
// cache and all network/event orchestration around the directory's
// decisions.
//
// The directory is region-granular: coherence state is tracked per byte
// range (span), not per buffer, so two daemons can each hold Modified on
// disjoint halves of one buffer with zero transfers between iterations
// of a partitioned kernel. Ranges split on demand and re-merge when
// adjacent spans converge.
//
// A Buffer may also be a sub-buffer view (parent != nil): a window
// [org, org+size) onto the root buffer created by CreateSubBuffer. Views
// own no directory — every coherence operation resolves to the root with
// absolute offsets — and no remote objects: on the wire a view is its
// root's ID plus a range.
type Buffer struct {
	ctx   *Context
	id    uint64
	size  int
	flags cl.MemFlags

	parent *Buffer // non-nil for sub-buffer views (always the root)
	org    int     // view origin within the root buffer

	mu       sync.Mutex // root only; views lock their root
	hostCopy []byte
	coh      *coherence.Dir // root only
	released bool
}

var _ cl.Buffer = (*Buffer)(nil)

// Size returns the buffer (or view) size in bytes.
func (b *Buffer) Size() int { return b.size }

// Flags returns the creation flags.
func (b *Buffer) Flags() cl.MemFlags { return b.flags }

// Context returns the owning context.
func (b *Buffer) Context() cl.Context { return b.ctx }

// rangeGeneration snapshots the coherence mutation stamp of this buffer
// (or view)'s range. The serve-plane result cache stamps every buffer a
// job reads with it: any later write to the range advances the stamp and
// silently invalidates the cached results derived from it.
func (b *Buffer) rangeGeneration() uint64 {
	root := b.root()
	off, end := b.viewRange()
	root.mu.Lock()
	defer root.mu.Unlock()
	return root.coh.RangeGeneration(off, end)
}

// root returns the buffer owning the region directory.
func (b *Buffer) root() *Buffer {
	if b.parent != nil {
		return b.parent
	}
	return b
}

// viewRange returns the buffer's window in root coordinates.
func (b *Buffer) viewRange() (off, end int) { return b.org, b.org + b.size }

// absRange translates a view-relative range to root coordinates.
func (b *Buffer) absRange(off, n int) (int, int) { return b.org + off, b.org + off + n }

// span is a byte range [off, end) of a root buffer: what the coherence
// layer tracks, claims and transfers. A buffer or view covers one
// (Buffer.span); a command's footprint is a list of them.
type span struct {
	root     *Buffer
	off, end int
}

// span returns the buffer's (or view's) window in root coordinates.
func (b *Buffer) span() span { return span{b.root(), b.org, b.org + b.size} }

// CreateSubBuffer creates a region view of this buffer (or of this view's
// root). Views are free: no remote objects are created — the root ID plus
// the range is the view's entire wire identity — so the data-parallel
// scheduler can create one per chunk without round trips.
func (b *Buffer) CreateSubBuffer(origin, size int) (cl.Buffer, error) {
	if size <= 0 || origin < 0 || size > b.size || origin > b.size-size {
		return nil, cl.Errf(cl.InvalidValue, "sub-buffer [%d,+%d) exceeds buffer size %d", origin, size, b.size)
	}
	r := b.root()
	r.mu.Lock()
	released := r.released
	r.mu.Unlock()
	if released {
		return nil, cl.Errf(cl.InvalidMemObject, "sub-buffer of a released buffer")
	}
	return &Buffer{
		ctx: b.ctx, id: r.id, size: size, flags: b.flags,
		parent: r, org: b.org + origin,
	}, nil
}

// Release releases the remote buffers on all servers. Releasing a
// sub-buffer view is a local no-op: views have no remote identity.
func (b *Buffer) Release() error {
	if b.parent != nil {
		return nil
	}
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return nil
	}
	b.released = true
	b.mu.Unlock()
	b.ctx.forgetBuffer(b)
	return b.ctx.sendRelease(protocol.MsgReleaseBuffer, b.id)
}

// ---------------------------------------------------------------------------
// Introspection (tests, debugging).

// States returns a summary of the MSI directory over this buffer's (or
// view's) range: the host state plus one state per server address. When
// the range is uniform the summary is a single letter ("M", "S", "I");
// region-fragmented buffers summarize as a sequence like "M+I".
func (b *Buffer) States() (host string, servers map[string]string) {
	r := b.root()
	off, end := b.viewRange()
	r.mu.Lock()
	regions := r.coh.Regions(off, end)
	r.mu.Unlock()
	var hostL []string
	perServer := map[coherence.Holder][]string{}
	for _, reg := range regions {
		hostL = append(hostL, reg.Host.String())
		for h, st := range reg.Holders {
			perServer[h] = append(perServer[h], st.String())
		}
	}
	servers = map[string]string{}
	for h, letters := range perServer {
		servers[h.(*Server).addr] = coherence.Summarize(letters)
	}
	return coherence.Summarize(hostL), servers
}

// RegionState describes one directory span for tests and debugging.
type RegionState struct {
	Off, End int
	Host     string
	Servers  map[string]string
	Lost     bool // only valid copy died with its daemon
}

// RegionStates returns the full region directory over the buffer's (or
// view's) range, one entry per span.
func (b *Buffer) RegionStates() []RegionState {
	r := b.root()
	off, end := b.viewRange()
	r.mu.Lock()
	regions := r.coh.Regions(off, end)
	r.mu.Unlock()
	out := make([]RegionState, len(regions))
	for i, reg := range regions {
		rs := RegionState{Off: reg.Off, End: reg.End, Host: reg.Host.String(), Servers: map[string]string{}, Lost: reg.Lost}
		for h, st := range reg.Holders {
			rs.Servers[h.(*Server).addr] = st.String()
		}
		out[i] = rs
	}
	return out
}

// SpanCount reports how many spans the directory currently holds (the
// adjacent-range merge tests pin that converged regions re-coalesce).
func (b *Buffer) SpanCount() int {
	r := b.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coh.SpanCount()
}

// LostRanges reports the byte ranges of this buffer (or view) whose only
// valid copy died with its daemon: reads of them fail with cl.DataLost
// until rewritten.
func (b *Buffer) LostRanges() [][2]int {
	r := b.root()
	off, end := b.viewRange()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coh.LostRanges(off, end)
}

// ---------------------------------------------------------------------------
// Directory transitions.

// markRangeWrittenBy records that a command on srv writes [off, end) of
// the root buffer: srv's copy of the range becomes Modified, every other
// copy of the range (including the client's) becomes Invalid; the rest of
// the buffer is untouched. ev is the writing command's event, gating
// later coherence reads of the range.
//
// The directory is updated optimistically — enqueues are one-way and the
// common case is success. If the command later fails (a deferred
// fire-and-forget failure), the update is rolled back so the directory
// does not gate forever on a failed event.
func (b *Buffer) markRangeWrittenBy(srv *Server, off, end int, ev *Event) {
	r := b.root()
	r.mu.Lock()
	snap, gen := r.coh.Claim(srv, off, end, ev)
	r.mu.Unlock()
	// In-flight inbound forwards toward the invalidated copies are NOT
	// cancelled here: commands already enqueued on those servers may be
	// legitimately gated on them (producer/consumer chains). Stale
	// payloads are instead refused at the receiving daemon — a committing
	// transfer cancels older unlanded overlapping gates — and by the
	// upload path's ordered cancel.
	if err := ev.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		if st == cl.Complete {
			return
		}
		r.mu.Lock()
		r.coh.RollbackClaim(srv, ev, off, end, gen, snap)
		r.mu.Unlock()
	}); err != nil {
		// Callback registration cannot fail for Complete; nothing to do.
		_ = err
	}
}

// handleServerLost sweeps the directory after srv's connection died.
func (b *Buffer) handleServerLost(srv *Server) {
	gen := srv.generation()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.coh.SweepServer(srv, gen)
}

// restoreAfterReattach re-installs the claims that were recorded as lost
// from srv, after a session re-attach confirmed the daemon retained its
// state: the remote buffer still holds exactly the bytes the directory
// thought were gone. Only losses recorded against the connection the
// retained session lived on are restorable.
func (b *Buffer) restoreAfterReattach(srv *Server) {
	wantConn := srv.generation() - 1
	b.mu.Lock()
	defer b.mu.Unlock()
	b.coh.Restore(srv, wantConn)
}

// noteHostRead updates directory state after the client read
// [offset, offset+n) of the root buffer from srv (M→S downgrade on
// reads). gen is the directory generation captured when the read was
// enqueued: if any directory mutation touched the range while the read
// was in flight, the returned bytes are a stale snapshot — still exactly
// what the racing read legitimately observed, but NOT a valid current
// host copy — and recording them would corrupt later coherence
// transfers sourced from the host.
func (b *Buffer) noteHostRead(srv *Server, offset, n int, data []byte, gen uint64) {
	_ = srv
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.coh.ValidateHost(offset, offset+n, gen) {
		return
	}
	if b.hostCopy == nil {
		b.hostCopy = make([]byte, b.size)
	}
	copy(b.hostCopy[offset:offset+n], data[:n])
}

// markHostValidRangeIfUnchanged records that the client now holds valid
// data for [off, off+len(data)) (after a coherence download), under the
// same per-range staleness rule as noteHostRead; it reports whether the
// data was recorded.
func (b *Buffer) markHostValidRangeIfUnchanged(off int, data []byte, gen uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.coh.ValidateHost(off, off+len(data), gen) {
		return false
	}
	if b.hostCopy == nil {
		b.hostCopy = make([]byte, b.size)
	}
	copy(b.hostCopy[off:], data)
	return true
}

// inboundGatesRange returns the distinct pending inbound-forward gates
// toward srv over [off, end) of the root buffer. Commands that read srv's
// copy of the range without consulting ensureValid must wait on them: the
// copy may be valid-but-in-flight.
func (b *Buffer) inboundGatesRange(srv *Server, off, end int) []*Event {
	r := b.root()
	r.mu.Lock()
	gs := r.coh.InboundGates(srv, off, end)
	r.mu.Unlock()
	return gateEvents(gs)
}

// writeGatesRange returns the distinct gates a command on srv that
// overwrites [off, end) of the root buffer must wait on: the forwards
// still landing there and the forward reads still sourcing from there
// (coherence.Dir.WriteGates).
func (b *Buffer) writeGatesRange(srv *Server, off, end int) []*Event {
	r := b.root()
	r.mu.Lock()
	gs := r.coh.WriteGates(srv, off, end)
	r.mu.Unlock()
	return gateEvents(gs)
}

// gateEvents converts coherence gates back to client event stubs.
func gateEvents(gs []coherence.Gate) []*Event {
	if len(gs) == 0 {
		return nil
	}
	out := make([]*Event, len(gs))
	for i, g := range gs {
		out[i] = g.(*Event)
	}
	return out
}

func containsEvent(evs []*Event, e *Event) bool {
	for _, x := range evs {
		if x == e {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Coherence transfers.

// validAsKernelArg is ensureRangeValidOn with the kernel-argument
// policy for data loss: a MemWriteOnly buffer cannot be read by kernels
// (API contract), so when its range is Lost — the data was unrecoverable
// anyway — the launch proceeds and recomputes it instead of failing.
// The returned gates then cover only the in-flight inbound forwards over
// the range (a late-landing payload must still not clobber the launch's
// fresh output); coherence transfers started for other spans before the
// lost one was hit are covered too, since their landing registers the
// same inbound gates.
func (s span) validAsKernelArg(q *Queue) ([]*Event, error) {
	gs, err := s.root.ensureRangeValidOn(q, s.off, s.end)
	if err != nil && s.root.flags&cl.MemWriteOnly != 0 && cl.CodeOf(err) == cl.DataLost {
		return s.root.inboundGatesRange(q.srv, s.off, s.end), nil
	}
	return gs, err
}

// ensureRangeValidOn guarantees that q's server holds a valid copy of
// [off, end) of the root buffer. It walks the directory span by span:
// ranges already valid on the server contribute at most their in-flight
// inbound gate; invalid ranges are transferred — daemon-to-daemon over
// the peer bulk plane when available, client-mediated otherwise — at
// range granularity, so a daemon that owns half a buffer never ships the
// half the target already has. The returned gating events must ride the
// dependent command's wait list (empty when no transfer was needed).
func (b *Buffer) ensureRangeValidOn(q *Queue, off, end int) ([]*Event, error) {
	r := b.root()
	srv := q.srv
	var gates []*Event
	pos := off
	for pos < end {
		r.mu.Lock()
		p := r.coh.ProbeAt(srv, pos, end)
		r.mu.Unlock()
		if p.ValidHere {
			// The copy may be valid-but-in-flight: an optimistically Shared
			// state whose forwarded payload has not landed yet. Dependent
			// commands must still wait on the transfer's gate — the payload
			// arrives outside every queue's in-order stream.
			if p.Inbound != nil {
				if g := p.Inbound.(*Event); !containsEvent(gates, g) {
					gates = append(gates, g)
				}
			}
			pos = p.End
			continue
		}
		if !p.HostValid && p.Src == nil && !p.Lost && p.DeadHolder {
			return nil, cl.Errf(cl.ServerLost, "buffer %d range [%d,%d): holder's connection just died (sweep pending)", b.id, pos, p.End)
		}
		var src *Server
		var srcGate *Event
		if p.Src != nil {
			src = p.Src.(*Server)
		}
		if p.SrcGate != nil {
			srcGate = p.SrcGate.(*Event)
		}

		g, retry, err := r.makeRangeValid(q, pos, p.End, p.HostValid, p.Lost, src, srcGate, p.Gen)
		if err != nil {
			return nil, err
		}
		if retry {
			// The directory mutated under the transfer (e.g. a new write
			// claimed the range): the downloaded bytes are stale. Re-read
			// the span's fresh state and start over for this position.
			continue
		}
		if g != nil && !containsEvent(gates, g) {
			gates = append(gates, g)
		}
		pos = p.End
	}
	return gates, nil
}

// makeRangeValid transfers [ps, pe) of the root buffer to q's server.
//
// Two transfer paths exist when the host copy of the range is invalid:
//
//   - peer forwarding (the daemon-to-daemon bulk plane): the source
//     daemon streams the range directly to the target; the client's link
//     sees two small commands and no payload. The returned gate completes
//     when the payload has landed, so dependent commands MUST wait on it.
//   - client-mediated (Section III-F, the paper's only path, kept as
//     fallback): download the range from a valid copy, then upload it on
//     q, where in-order execution sequences it before the dependent
//     command.
func (b *Buffer) makeRangeValid(q *Queue, ps, pe int, hostValid, lost bool, src *Server, srcGate *Event, startGen uint64) (*Event, bool, error) {
	srv := q.srv
	if !hostValid {
		if src == nil {
			if lost {
				return nil, false, cl.Errf(cl.DataLost, "buffer %d range [%d,%d): only valid copy died with its daemon", b.id, ps, pe)
			}
			return nil, false, cl.Errf(cl.InvalidMemObject, "buffer %d range [%d,%d) has no valid copy", b.id, ps, pe)
		}
		if b.ctx.canForward(src, srv) {
			gate, err := b.forwardRange(src, srv, ps, pe, srcGate)
			if err == nil {
				return gate, false, nil
			}
			// A local send failure means the forward never left the
			// client; fall through to the client-mediated path.
		}
		// Download the valid range from its holder (client-mediated
		// server-to-server transfer, Section III-F: all traffic routes
		// through the client in the paper's implementation).
		data := make([]byte, pe-ps)
		cohQ, err := b.ctx.coherenceQueue(src)
		if err != nil {
			return nil, false, err
		}
		var gateList []cl.Event
		if srcGate != nil {
			gateList = []cl.Event{srcGate}
		}
		down := &recCmd{op: protocol.GraphOpRead, buf: b, offset: ps, size: len(data), rdst: data}
		if _, err := cohQ.enqueueReadInternal(down, true, gateList, false); err != nil {
			return nil, false, err
		}
		// Only record the download if the range's directory state is
		// untouched since it was sampled: a write that landed meanwhile
		// makes these bytes stale, and installing them as a valid host
		// copy (or downgrading the NEW owner) would corrupt later
		// transfers. The caller retries against the fresh state instead.
		if !b.markHostValidRangeIfUnchanged(ps, data, startGen) {
			return nil, true, nil
		}
	}
	ev, err := b.uploadRange(q, ps, pe)
	return ev, false, err
}

// uploadRange ships the client's copy of [ps, pe) to q's server on the
// command's own queue, claiming Shared for the range.
func (b *Buffer) uploadRange(q *Queue, ps, pe int) (*Event, error) {
	srv := q.srv
	b.mu.Lock()
	if b.hostCopy == nil {
		// Shared-but-never-written range: contents are defined as zero.
		b.hostCopy = make([]byte, b.size)
	}
	// Snapshot the range into a pooled payload under the directory lock:
	// the host cache is mutable (a concurrent read may refresh it), and
	// the zero-copy send path references its payload until the deferred
	// flush — a stable private copy is required, and the pool makes it
	// allocation-free in steady state.
	data := gcf.GetPayload(pe - ps)
	copy(data, b.hostCopy[ps:pe])
	// Disassociate superseded inbound gates now: the upload is about to
	// own srv's claim on the range, and the old gates' failure callbacks
	// must not revoke it (rollback is ownership-guarded per span).
	stale := b.coh.DisownInbound(srv, ps, pe)
	b.mu.Unlock()
	for _, g := range stale {
		// A superseded forward is still in flight toward srv (its claim
		// was invalidated after the forward started). Cancel it with a
		// one-way message that dispatches ahead of the upload on this
		// same connection: the daemon's gate guard then guarantees the
		// stale payload can never land over the fresh upload.
		b.cancelSupersededForward(g.(*Event))
	}
	up := &recCmd{op: protocol.GraphOpWrite, buf: b.root(), offset: ps, size: len(data), data: data}
	ev, err := q.enqueueWriteInternal(up, false, func() { gcf.PutPayload(data) }, nil, nil)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.coh.Validate(srv, ps, pe)
	b.mu.Unlock()
	// The upload is one-way: if the daemon later rejects it, srv never
	// received the data and the optimistic Shared claim must be revoked.
	// The revoke ignores the generation on purpose: an interim mutation
	// may have left srv's Shared range untouched, and a false-valid copy
	// (silent corruption) is far worse than a redundant re-upload.
	if cerr := ev.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		if st == cl.Complete {
			return
		}
		b.mu.Lock()
		b.coh.Invalidate(srv, ps, pe)
		b.mu.Unlock()
	}); cerr != nil {
		return nil, cerr
	}
	return ev, nil
}

// forwardRange moves [ps, pe) of this buffer's valid copy from src to dst
// over the daemon-to-daemon bulk plane: one MsgAcceptForward to dst, one
// MsgForwardBuffer to src, payload on the peer link — only the range's
// bytes, never the whole buffer. It returns the gating event (origin dst)
// that completes when the payload has landed; dependent commands on dst
// must wait on it.
//
// The directory is updated optimistically (src M→S read downgrade over
// the range, dst→S over the range), with the same deferred-failure
// discipline as the one-way upload path: if the transfer fails, dst's
// Shared claim on the range is revoked — a false-valid copy (silent
// corruption) is far worse than a redundant re-transfer — while src
// keeps its untouched valid copy.
func (b *Buffer) forwardRange(src, dst *Server, ps, pe int, srcGate *Event) (*Event, error) {
	token := newForwardToken()
	// The forward rides the coherence queue on src, like client-mediated
	// coherence downloads do.
	srcQ, err := b.ctx.coherenceQueue(src)
	if err != nil {
		return nil, err
	}
	var gateList []cl.Event
	if srcGate != nil {
		gateList = []cl.Event{srcGate}
	}
	waitIDs, err := translateWaitList(src, gateList)
	if err != nil {
		return nil, err
	}

	// Gate stub: dst's daemon completes the remote user event when the
	// payload lands, which completes this stub through the normal event
	// notification path.
	gateID := b.ctx.plat.newID()
	gate := newRemoteEvent(b.ctx, dst, gateID)
	dst.registerHook(gateID, gate.complete)
	if err := dst.send(protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: token, BufID: b.id, Offset: int64(ps), Size: int64(pe - ps),
			EventID: gateID, QueueID: 0,
		})
	}); err != nil {
		dst.dropHook(gateID)
		return nil, err
	}

	// Source-side completion event: "payload handed to the peer
	// transport". Its failure is the signal that the payload never
	// reached dst, so the hook cancels dst's gate and (on a dial-class
	// failure) records the peer pair as unreachable for fallback.
	sendID := b.ctx.plat.newID()
	sendEv := newRemoteEvent(b.ctx, src, sendID)
	peerAddr := dst.PeerAddr()
	src.registerHook(sendID, func(st cl.CommandStatus) {
		sendEv.complete(st)
		if st == cl.Complete {
			return
		}
		if cl.ErrorCode(st) == cl.InvalidServer {
			src.markPeerUnreachable(peerAddr)
		}
		// The payload never reached dst: fail the gate remotely so
		// dependent commands (and the local stub) unblock.
		go b.failRemoteGate(dst, gate, gateID, st)
	})
	if err := src.send(protocol.MsgForwardBuffer, func(w *protocol.Writer) {
		protocol.PutForwardBuffer(w, protocol.ForwardBuffer{
			QueueID: srcQ.id, SrcBufID: b.id, SrcOffset: int64(ps), Size: int64(pe - ps),
			PeerAddr: peerAddr, Token: token,
			// Buffer stubs share one ID on every server of the context.
			DstBufID: b.id, DstOffset: int64(ps),
			EventID: sendID, WaitIDs: waitIDs,
		})
	}); err != nil {
		src.dropHook(sendID)
		// The accept is already parked at dst; fail its gate so the
		// daemon retires it and nothing waits forever.
		go b.failRemoteGate(dst, gate, gateID, cl.CommandStatus(cl.InvalidServer))
		return nil, err
	}
	srcQ.track(sendEv)
	// sendEv completing only says the payload was handed to src's
	// transport: a src that dies right after takes the bytes still in its
	// send path with it, dst's accept stays parked, and nothing above
	// would ever settle the gate. This hook is one no daemon completes —
	// only the loss sweep of src's connection fires it.
	lostID := b.ctx.plat.newID()
	src.registerHook(lostID, func(st cl.CommandStatus) { b.failRemoteGate(dst, gate, gateID, st) })

	// Optimistic directory update over the range: src's read downgrades
	// M→S, dst gains a Shared copy gated on the transfer; the host copy is
	// untouched (the payload never visits the client). Until sendEv
	// settles, a write to the range on src must wait for it: the source
	// read runs on the coherence queue, which no app queue is ordered with.
	b.mu.Lock()
	b.coh.ValidateForward(src, dst, ps, pe, gate, sendEv)
	b.mu.Unlock()
	if cerr := sendEv.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) {
		b.mu.Lock()
		b.coh.RetireOutbound(src, ps, pe, sendEv)
		b.mu.Unlock()
	}); cerr != nil {
		return nil, cerr
	}
	if cerr := gate.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		// A transport-class failure means the peer path itself is broken
		// (the source may have "handed the payload to the transport"
		// successfully and only the receiver saw the wire die): stop
		// forwarding over this pair and let coherence fall back to the
		// client-mediated path.
		if st != cl.Complete && cl.ErrorCode(st) == cl.InvalidServer {
			src.markPeerUnreachable(peerAddr)
		}
		src.dropHook(lostID)
		b.mu.Lock()
		b.coh.SettleForward(dst, ps, pe, gate, st == cl.Complete)
		b.mu.Unlock()
	}); cerr != nil {
		return nil, cerr
	}
	return gate, nil
}

// readPart is one piece of a stitched read plan: read [off, end) of the
// root buffer from holder (nil: satisfy from the host copy), gated on the
// listed events.
type readPart struct {
	off, end int
	holder   *Server
	gates    []*Event
}

// readPlan partitions [off, end) by where a valid copy lives, preferring
// q's own server, then the Modified owner, then any Shared holder, then
// the host copy. It returns nil when the whole range is already valid on
// q's server (the caller then uses the plain single-read path), and an
// error when some sub-range has no valid copy anywhere.
func (b *Buffer) readPlan(q *Queue, off, end int) ([]readPart, error) {
	r := b.root()
	r.mu.Lock()
	parts, err := r.coh.ReadPlan(q.srv, off, end)
	r.mu.Unlock()
	if err != nil || parts == nil {
		return nil, err
	}
	out := make([]readPart, len(parts))
	for i, p := range parts {
		rp := readPart{off: p.Off, end: p.End, gates: gateEvents(p.Gates)}
		if p.Holder != nil {
			rp.holder = p.Holder.(*Server)
		}
		out[i] = rp
	}
	return out, nil
}

// hostRangeCopy copies [off, end) of the host cache into dst (zeros when
// the range was never materialized).
func (b *Buffer) hostRangeCopy(off, end int, dst []byte) {
	r := b.root()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hostCopy == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, r.hostCopy[off:end])
}

// cancelSupersededForward tells a forward's target daemon to refuse the
// transfer's landing. The cancel is a one-way message so it dispatches
// ahead of every command sent to that daemon afterwards (the daemon's
// forwardGate guard makes landing-vs-cancel atomic): anything enqueued
// after the superseding write is therefore safe from the stale payload.
// The status is deliberately not InvalidServer — the peer path is fine,
// only this transfer is obsolete — so the pair is not marked
// unreachable.
func (b *Buffer) cancelSupersededForward(g *Event) {
	if err := g.origin.send(protocol.MsgSetUserEventStatus, func(w *protocol.Writer) {
		w.U64(g.originID)
		w.I32(int32(cl.InvalidOperation))
	}); err != nil {
		// The connection to the target is gone; so is the transfer.
		_ = err
	}
}

// failRemoteGate fails a forward's gating user event on dst after the
// source side reported that the payload will never arrive: commands
// waiting on the gate unblock with the error, and the daemon retires the
// pending accept. If the transfer actually landed first, the remote
// SetStatus is a no-op (user-event completion is idempotent). The local
// stub is failed directly as well, in case dst never saw the accept.
func (b *Buffer) failRemoteGate(dst *Server, gate *Event, gateID uint64, st cl.CommandStatus) {
	if _, err := dst.call(protocol.MsgSetUserEventStatus, func(w *protocol.Writer) {
		w.U64(gateID)
		w.I32(int32(st))
	}); err != nil && dst.Connected() {
		// The gate may be unknown on dst (accept dropped as malformed);
		// the local completion below still unblocks client-side waiters.
		_ = err
	}
	gate.complete(st)
}

// newForwardToken draws a random transfer token. Tokens rendezvous the
// accept and the payload at the receiving daemon, which serves many
// clients: random 64-bit values cannot collide across clients the way
// per-client counters would.
func newForwardToken() uint64 {
	var raw [8]byte
	rand.Read(raw[:]) // cannot fail: a broken entropy source crashes the process
	return binary.LittleEndian.Uint64(raw[:])
}

// floatBits converts a float32 to its IEEE bit pattern (helper shared by
// kernel argument marshalling).
func floatBits(f float32) uint32 { return math.Float32bits(f) }
