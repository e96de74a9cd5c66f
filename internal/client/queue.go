package client

import (
	"io"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// Queue is a simple stub for a remote command queue (queues are owned by
// one server, Section III-D). Enqueue operations translate wait lists to
// remote event IDs, run the region-granular MSI coherence protocol for
// the involved buffer ranges and forward the command to the owning
// daemon; bulk data rides on gcf streams.
//
// Enqueues are fire-and-forget (one-way requests): the command is pushed
// to the daemon without waiting for an acknowledgement, so a burst of N
// non-blocking enqueues costs ~1 network latency instead of N round
// trips — the pipelining that lets dOpenCL hide network latency behind
// OpenCL's asynchronous command-queue model (Section III-B). Remote
// failures are deferred: they fail the command's event and are reported
// by the queue's next Finish. Blocking enqueues, Finish and event waits
// remain synchronization points.
type Queue struct {
	ctx *Context
	srv *Server
	dev *Device
	id  uint64

	mu       sync.Mutex
	inFlight []*Event  // events of commands pipelined since the last Finish
	pruneAt  int       // adaptive compaction threshold for inFlight
	rec      []*recCmd // active graph recording (nil when not recording)
	released bool
}

var _ cl.Queue = (*Queue)(nil)

// Device returns the queue's device.
func (q *Queue) Device() cl.Device { return q.dev }

// Context returns the owning context.
func (q *Queue) Context() cl.Context { return q.ctx }

// bufferOf validates that b is a dOpenCL buffer (or sub-buffer view) of
// this context.
func (q *Queue) bufferOf(b cl.Buffer) (*Buffer, error) {
	cb, ok := b.(*Buffer)
	if !ok || cb.ctx != q.ctx {
		return nil, cl.Errf(cl.InvalidMemObject, "buffer does not belong to this context")
	}
	return cb, nil
}

// withGates returns wait extended by the non-nil coherence gating events
// without mutating the caller's slice. Gates returned by the coherence
// layer must ride the dependent command's wait list: a peer-forwarded
// transfer does not travel through this queue, so in-order execution
// alone cannot sequence the command after the data's arrival.
func withGates(wait []cl.Event, gates ...*Event) []cl.Event {
	n := 0
	for _, g := range gates {
		if g != nil {
			n++
		}
	}
	if n == 0 {
		return wait
	}
	out := make([]cl.Event, 0, len(wait)+n)
	out = append(out, wait...)
	for _, g := range gates {
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// recCmd is one queue command on the client: every Queue.Enqueue* call
// builds one, which an active recording then captures (record) or the
// queue sends to its daemon. Transfer commands name ROOT buffers with
// absolute offsets (views are resolved when the command is built); kernel
// arguments may still be sub-buffer views, whose window the footprint
// honours.
type recCmd struct {
	op uint8 // protocol.GraphOp*

	buf      *Buffer // write/read target (root)
	src, dst *Buffer // copy endpoints (roots)
	offset   int     // write/read offset, copy source offset (absolute)
	dstOff   int
	size     int

	data []byte // write payload (the application's slice)
	rdst []byte // read destination (application slice)
	// payload is a recorded write's payload instead of data: the plan's
	// own pooled copy, shared with the ships that are still sending it.
	payload *gcf.SharedPayload

	// Kernel launch. The bindings are frozen when the command is built:
	// later SetArg calls do not leak into it (in a recording, updates are
	// the only patch path).
	k       *Kernel
	args    []protocol.GraphKernelArg
	argBufs []*Buffer // parallel to args: the stub behind each (sub-)buffer value
	goffset []int
	global  []int
	local   []int
}

// footprint is the one statement of which buffer ranges a command reads
// and which it writes: read is called for every span whose current
// contents the command needs on its server, write for every span it
// overwrites. The eager path turns them into coherence transfers, gates
// and directory claims (prepare); a recording folds them into the
// graph's inputs and outputs (compileLocked).
func (c *recCmd) footprint(read, write func(span)) {
	switch c.op {
	case protocol.GraphOpWrite:
		// A write claims exactly its range: no read-modify-write of the
		// rest of the buffer.
		write(span{c.buf, c.offset, c.offset + c.size})
	case protocol.GraphOpRead:
		read(span{c.buf, c.offset, c.offset + c.size})
	case protocol.GraphOpCopy:
		read(span{c.src, c.offset, c.offset + c.size})
		write(span{c.dst, c.dstOff, c.dstOff + c.size})
	case protocol.GraphOpKernel:
		// Every buffer argument's range must be valid on the server;
		// non-read-only arguments are written. Sub-buffer views scope both
		// to their window — the mechanism by which a partitioned launch on
		// N daemons leaves each holding Modified on its own chunk only.
		for i, b := range c.argBufs {
			if b == nil {
				continue
			}
			read(b.span())
			if !c.k.argInfo[i].ReadOnly {
				write(b.span())
			}
		}
	}
}

// wire converts the command to its protocol form — the one conversion
// behind both the eager frame and the graph registration. streamID is the
// command's bulk-data stream, if it has one.
func (c *recCmd) wire(streamID uint32) protocol.GraphCommand {
	gc := protocol.GraphCommand{Op: c.op, Offset: int64(c.offset), DstOff: int64(c.dstOff), Size: int64(c.size), StreamID: streamID}
	switch c.op {
	case protocol.GraphOpWrite, protocol.GraphOpRead:
		gc.BufID = c.buf.id
	case protocol.GraphOpCopy:
		gc.SrcID, gc.DstID = c.src.id, c.dst.id
	case protocol.GraphOpKernel:
		gc.KernelID, gc.Args = c.k.id, c.args
		gc.GOffset, gc.Global, gc.Local = c.goffset, c.global, c.local
	}
	return gc
}

// acquire runs the coherence protocol for a command (or a whole graph
// iteration) about to execute on q's server: every read range is made
// valid there — transferred daemon-to-daemon or through the client as
// needed, range-granular either way — and the returned gates, which must
// ride the command's wait list, cover those transfers plus every
// in-flight forward overlapping a written range: inbound, so a
// late-landing payload cannot clobber the fresh data, and outbound, so
// the fresh data cannot ride a payload meant for an earlier consumer (the
// source read runs on the coherence queue). The gates are hard
// dependencies on purpose: an ordering-only wait would let an overwrite
// run while a cancelled transfer's receive is still copying, so a failed
// forward fails the command too (safe, and the application can retry).
// strict refuses a Lost range even on a MemWriteOnly buffer (copy
// sources: the copy engine does read them); kernel arguments and graph
// inputs tolerate it, see span.validAsKernelArg.
func (q *Queue) acquire(reads, writes []span, strict bool) ([]*Event, error) {
	var gates []*Event
	add := func(gs []*Event) {
		for _, g := range gs {
			if g != nil && !containsEvent(gates, g) {
				gates = append(gates, g)
			}
		}
	}
	for _, s := range reads {
		var gs []*Event
		var err error
		if strict {
			gs, err = s.root.ensureRangeValidOn(q, s.off, s.end)
		} else {
			gs, err = s.validAsKernelArg(q)
		}
		if err != nil {
			return nil, err
		}
		add(gs)
	}
	for _, s := range writes {
		add(s.root.writeGatesRange(q.srv, s.off, s.end))
	}
	return gates, nil
}

// claim records that the command completing ev writes the spans on q's
// server: its copy of each becomes Modified, every other copy Invalid.
func (q *Queue) claim(writes []span, ev *Event) {
	for _, s := range writes {
		s.root.markRangeWrittenBy(q.srv, s.off, s.end, ev)
	}
}

// prepare runs coherence for one eager command: it returns wait extended
// by the command's gates, and the written spans to claim once the
// command is on the wire.
func (q *Queue) prepare(c *recCmd, wait []cl.Event) ([]cl.Event, []span, error) {
	reads, writes := make([]span, 0, 4), make([]span, 0, 2)
	c.footprint(func(s span) { reads = append(reads, s) }, func(s span) { writes = append(writes, s) })
	gates, err := q.acquire(reads, writes, c.op == protocol.GraphOpCopy)
	if err != nil {
		return nil, nil, err
	}
	return withGates(wait, gates...), writes, nil
}

// sendCmd puts c on the wire as an eager MsgEnqueue* frame completing ev
// (nil: the command has no event).
func (q *Queue) sendCmd(c *recCmd, streamID uint32, ev *Event, waitIDs []uint64) error {
	e := protocol.Enqueue{QueueID: q.id, WaitIDs: waitIDs, Cmd: c.wire(streamID)}
	if ev != nil {
		e.EventID = ev.originID
	}
	err := q.srv.send(e.MsgType(), func(w *protocol.Writer) { protocol.PutEnqueue(w, e) })
	if err != nil && ev != nil {
		q.srv.dropHook(ev.originID)
	}
	return err
}

// submit records c, or issues it: the path of every command that moves
// no bulk data through the client (copy, kernel, marker, barrier).
// Barriers have no event — their remote failures surface at the next
// Finish — so for them the returned event is nil.
func (q *Queue) submit(c *recCmd, wait []cl.Event) (cl.Event, error) {
	if ev, rec, err := q.record(c, false, wait); rec {
		return ev, err
	}
	wait, writes, err := q.prepare(c, wait)
	if err != nil {
		return nil, err
	}
	waitIDs, err := translateWaitList(q.srv, wait)
	if err != nil {
		return nil, err
	}
	var ev *Event
	if c.op != protocol.GraphOpBarrier {
		ev = q.newCommandEvent()
	}
	if err := q.sendCmd(c, 0, ev, waitIDs); err != nil || ev == nil {
		return nil, err
	}
	q.track(ev)
	q.claim(writes, ev)
	return ev, nil
}

// newCommandEvent allocates the client-side event stub and registers its
// completion hook with the owning server.
func (q *Queue) newCommandEvent() *Event {
	id := q.ctx.plat.newID()
	ev := newRemoteEvent(q.ctx, q.srv, id)
	q.srv.registerHook(id, ev, ev.complete)
	return ev
}

// track records a successfully fired command's event so Finish can wait
// for the local stub to settle (completion notifications race the Finish
// response by one goroutine hop). Settled events are pruned en route so
// queues that never Finish (coherence queues) stay bounded.
func (q *Queue) track(ev *Event) {
	q.mu.Lock()
	if q.pruneAt == 0 {
		q.pruneAt = 64
	}
	if len(q.inFlight) >= q.pruneAt {
		kept := q.inFlight[:0]
		for _, e := range q.inFlight {
			if st := e.Status(); st > cl.Complete {
				kept = append(kept, e)
			}
		}
		q.inFlight = kept
		// Amortize the scan: if little was reclaimed the events are
		// genuinely outstanding (a deep gated pipeline), so back off the
		// threshold instead of rescanning on every enqueue.
		if len(kept)*2 >= q.pruneAt {
			q.pruneAt *= 2
		} else {
			q.pruneAt = 64
		}
	}
	q.inFlight = append(q.inFlight, ev)
	q.mu.Unlock()
}

// EnqueueWriteBuffer uploads host data into the buffer (or sub-buffer
// view) through this queue's server. With the region-granular directory
// only the written range changes state — the server's copy of exactly
// [offset, offset+len(data)) becomes Modified, all other copies of that
// range are invalidated, and the rest of the buffer is untouched. In
// particular a partial write no longer forces a read-modify-write
// transfer of the whole buffer, which the whole-buffer directory
// required.
func (q *Queue) EnqueueWriteBuffer(b cl.Buffer, blocking bool, offset int, data []byte, wait []cl.Event) (cl.Event, error) {
	cb, err := q.bufferOf(b)
	if err != nil {
		return nil, err
	}
	if offset < 0 || offset+len(data) > cb.size {
		return nil, cl.Errf(cl.InvalidValue, "write of %d bytes at offset %d exceeds buffer size %d", len(data), offset, cb.size)
	}
	aoff, _ := cb.absRange(offset, len(data))
	c := &recCmd{op: protocol.GraphOpWrite, buf: cb.root(), offset: aoff, size: len(data), data: data}
	if ev, rec, err := q.record(c, blocking, wait); rec {
		return ev, err
	}
	wait, writes, err := q.prepare(c, wait)
	if err != nil {
		return nil, err
	}
	ev, err := q.enqueueWriteInternal(c, blocking, nil, wait, writes)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// enqueueWriteInternal performs the wire work of a write command. The
// directory records the server's copy of the claimed spans as Modified
// (application writes); coherence uploads claim nothing and adjust states
// themselves.
//
// The payload ships zero-copy: the transport's frames REFERENCE data
// until the deferred flush writes them to the socket. For blocking
// writes the event wait implies the flush, so the caller may reuse the
// slice on return, exactly as before. For non-blocking writes the
// caller must not mutate data until the command completes — which is
// OpenCL's own contract for a non-blocking clEnqueueWriteBuffer, so
// application writes need no copy at all. Internal callers that cannot
// honour that (coherence uploads from the mutable host cache) pass a
// pooled snapshot plus a release callback; release is called exactly
// once on every path — after the last frame flushes, or on the early
// error returns below.
func (q *Queue) enqueueWriteInternal(c *recCmd, blocking bool, release func(), wait []cl.Event, claimed []span) (*Event, error) {
	data := c.data
	waitIDs, err := translateWaitList(q.srv, wait)
	if err != nil {
		if release != nil {
			release()
		}
		return nil, err
	}
	ev := q.newCommandEvent()
	stream := q.srv.openStream()
	if err := q.sendCmd(c, stream.ID(), ev, waitIDs); err != nil {
		stream.Release()
		if release != nil {
			release()
		}
		return nil, err
	}
	q.track(ev)
	q.claim(claimed, ev)
	// Ship the payload. Blocking writes transfer synchronously (the
	// caller may reuse the slice immediately after return); non-blocking
	// writes stream in the background, as the paper's asynchronous bulk
	// transfers do.
	// The upload stream is outbound-only: once the payload is shipped the
	// local bookkeeping can go (the daemon's side is released after it
	// stages the data).
	if blocking {
		defer stream.Release()
		if werr := stream.WriteOwned(data, release); werr != nil {
			return nil, cl.Errf(cl.InvalidServer, "bulk upload failed: %v", werr)
		}
		if werr := stream.CloseWrite(); werr != nil {
			return nil, cl.Errf(cl.InvalidServer, "bulk upload close failed: %v", werr)
		}
		if werr := ev.Wait(); werr != nil {
			// The failure is delivered here; don't re-report it at Finish.
			q.srv.clearQueueError(q.id, ev.originID)
			return nil, werr
		}
		return ev, nil
	}
	go func() {
		defer stream.Release()
		if werr := stream.WriteOwned(data, release); werr != nil {
			return
		}
		_ = stream.CloseWrite()
	}()
	return ev, nil
}

// EnqueueReadBuffer downloads buffer (or view) contents into dst. The
// read is region-aware: ranges whose valid copy lives on this queue's
// server download directly; ranges owned by other daemons are stitched in
// from their holders — one range-read per holder on that holder's
// coherence queue — so a whole-buffer read after a partitioned kernel
// moves each daemon's result range exactly once and never forces a
// whole-buffer transfer between daemons. Ranges valid only in the host
// cache are served from it without touching the network.
func (q *Queue) EnqueueReadBuffer(b cl.Buffer, blocking bool, offset int, dst []byte, wait []cl.Event) (cl.Event, error) {
	cb, err := q.bufferOf(b)
	if err != nil {
		return nil, err
	}
	if offset < 0 || offset+len(dst) > cb.size {
		return nil, cl.Errf(cl.InvalidValue, "read of %d bytes at offset %d exceeds buffer size %d", len(dst), offset, cb.size)
	}
	aoff, aend := cb.absRange(offset, len(dst))
	root := cb.root()
	c := &recCmd{op: protocol.GraphOpRead, buf: root, offset: aoff, size: len(dst), rdst: dst}
	if ev, rec, err := q.record(c, blocking, wait); rec {
		return ev, err
	}
	parts, err := root.readPlan(q, aoff, aend)
	if err != nil {
		// Some sub-range has no valid copy anywhere (a directory wedged
		// by failures): reject the read, as the eager paths do.
		return nil, err
	}
	if parts == nil {
		// Fast path: the whole range is valid on this server.
		gates := root.inboundGatesRange(q.srv, aoff, aend)
		return q.enqueueReadInternal(c, blocking, withGates(wait, gates...), true)
	}
	return q.readStitched(root, blocking, aoff, dst, parts, wait)
}

// readStitched executes a multi-holder read plan: one range-read per
// part, each pulling its bytes from the daemon that owns them (or from
// the host cache), all landing in the caller's dst slice. The returned
// event — a client-side user-event stub, so it works in wait lists on
// any server — completes when every part has arrived and fails with the
// first part's failure status. Host-cache parts honour the caller's
// wait list too: they are copied only after every wait event completes,
// so a stitched read never settles ahead of its dependencies.
func (q *Queue) readStitched(root *Buffer, blocking bool, aoff int, dst []byte, parts []readPart, wait []cl.Event) (cl.Event, error) {
	var hostParts []readPart
	partEvents := make([]*Event, 0, len(parts))
	// A mid-plan failure must not leave already-enqueued parts writing
	// into the caller's dst after the error returns (the caller will
	// reuse the slice): settle the in-flight parts before reporting.
	failPlan := func(err error) (cl.Event, error) {
		for _, p := range partEvents {
			_ = settle(p) // the plan's failure is the one to report
		}
		return nil, err
	}
	for _, p := range parts {
		if p.holder == nil {
			// Valid only in the host cache: served below, behind the wait
			// list (the network parts carry the waits in their own lists).
			hostParts = append(hostParts, p)
			continue
		}
		sub := dst[p.off-aoff : p.end-aoff]
		partQ := q
		if p.holder != q.srv {
			cq, err := q.ctx.coherenceQueue(p.holder)
			if err != nil {
				return failPlan(err)
			}
			partQ = cq
		}
		part := &recCmd{op: protocol.GraphOpRead, buf: root, offset: p.off, size: len(sub), rdst: sub}
		ev, err := partQ.enqueueReadInternal(part, false, withGates(wait, p.gates...), true)
		if err != nil {
			return failPlan(err)
		}
		partEvents = append(partEvents, ev)
	}
	agg := newUserEventStub(q.ctx)
	go func() {
		status := cl.Complete
		for _, w := range wait {
			if w == nil {
				continue
			}
			if err := settle(w); err != nil && status == cl.Complete {
				status = cl.CommandStatus(cl.InvalidEventWaitList)
			}
		}
		if status == cl.Complete {
			for _, p := range hostParts {
				root.hostRangeCopy(p.off, p.end, dst[p.off-aoff:p.end-aoff])
			}
		}
		for _, p := range partEvents {
			if err := settle(p); err != nil && status == cl.Complete {
				status = cl.CommandStatus(cl.CodeOf(err))
			}
		}
		agg.complete(status)
	}()
	ev := &agg.Event
	q.track(ev)
	if blocking {
		err := ev.Wait()
		// The aggregate has no server of its own; the caller waited on q's.
		if serr := q.srv.takeQueueError(0); serr != nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// enqueueReadInternal performs the wire work of a read command. note
// selects whether the directory records the host's fresh copy of the
// range.
func (q *Queue) enqueueReadInternal(c *recCmd, blocking bool, wait []cl.Event, note bool) (*Event, error) {
	cb, offset, dst := c.buf, c.offset, c.rdst
	waitIDs, err := translateWaitList(q.srv, wait)
	if err != nil {
		return nil, err
	}
	ev := q.newCommandEvent()
	stream := q.srv.openStream()
	// Snapshot the directory generation: the completed read only updates
	// the host-copy cache if no directory mutation raced it (see
	// noteHostRead).
	cb.mu.Lock()
	gen := cb.coh.Generation()
	cb.mu.Unlock()
	recv := func() error {
		defer stream.Release()
		if _, rerr := io.ReadFull(stream, dst); rerr != nil {
			return cl.Errf(cl.InvalidServer, "bulk download failed: %v", rerr)
		}
		stream.WaitEOF()
		if note {
			cb.noteHostRead(q.srv, offset, len(dst), dst, gen)
		}
		return nil
	}
	// Non-blocking read: the returned event must not complete before dst
	// is filled, so chain the stream drain in front of the latch
	// completion. The hook swap must happen before the send — once the
	// one-way request is on the wire a fast daemon could fire the
	// original hook and orphan the wrapped event.
	var wrapped *Event
	if !blocking {
		wrapped = newRemoteEvent(q.ctx, q.srv, ev.originID)
		q.srv.dropHook(ev.originID)
		q.srv.registerHook(ev.originID, wrapped, func(st cl.CommandStatus) {
			if st == cl.Complete {
				if rerr := recv(); rerr != nil {
					wrapped.complete(cl.CommandStatus(cl.InvalidServer))
					return
				}
			} else {
				stream.Release()
			}
			wrapped.complete(st)
		})
	}
	if err := q.sendCmd(c, stream.ID(), ev, waitIDs); err != nil {
		stream.Release()
		return nil, err
	}
	if blocking {
		q.track(ev)
		// A daemon that rejects the one-way command closes the stream
		// empty, so recv fails; the event then carries the real error.
		rerr := recv()
		if werr := ev.Wait(); werr != nil {
			// The failure is delivered here; don't re-report it at Finish.
			q.srv.clearQueueError(q.id, ev.originID)
			return nil, werr
		}
		if rerr != nil {
			return nil, rerr
		}
		return ev, nil
	}
	q.track(wrapped)
	return wrapped, nil
}

// EnqueueCopyBuffer copies between two buffers (or views). Both must be
// dOpenCL buffers of this queue's context — a buffer of another context
// (or platform) is rejected with cl.InvalidMemObject, never silently
// copied. The copy itself always executes on this queue's server: when
// the source range's valid copy lives on a different server, the
// coherence layer moves exactly that range here first — over the
// daemon-to-daemon bulk plane when both daemons support it, through the
// client otherwise — and the command waits on the transfer's gates. A
// source range with no valid copy anywhere is a cl.InvalidMemObject
// error. The destination range becomes Modified on this server; the rest
// of the destination buffer is untouched.
func (q *Queue) EnqueueCopyBuffer(src, dst cl.Buffer, srcOffset, dstOffset, size int, wait []cl.Event) (cl.Event, error) {
	csrc, err := q.bufferOf(src)
	if err != nil {
		return nil, err
	}
	cdst, err := q.bufferOf(dst)
	if err != nil {
		return nil, err
	}
	if size < 0 || srcOffset < 0 || srcOffset > csrc.size-size || dstOffset < 0 || dstOffset > cdst.size-size {
		return nil, cl.Errf(cl.InvalidValue, "copy range out of bounds")
	}
	sAbs, _ := csrc.absRange(srcOffset, size)
	dAbs, _ := cdst.absRange(dstOffset, size)
	return q.submit(&recCmd{op: protocol.GraphOpCopy, src: csrc.root(), dst: cdst.root(),
		offset: sAbs, dstOff: dAbs, size: size}, wait)
}

// EnqueueNDRangeKernel launches a kernel on this queue's device. Before
// the launch the MSI protocol makes every buffer argument's range valid
// on the server; afterwards the ranges of buffers written by the kernel
// are Modified here and invalid everywhere else. Binding a sub-buffer
// view as an argument scopes both directions to the view's range — the
// mechanism by which a partitioned launch on N daemons leaves each
// holding Modified on its own chunk only.
func (q *Queue) EnqueueNDRangeKernel(k cl.Kernel, global, local []int, wait []cl.Event) (cl.Event, error) {
	return q.EnqueueNDRangeKernelWithOffset(k, nil, global, local, wait)
}

// EnqueueNDRangeKernelWithOffset launches a kernel with a global work
// offset: work-item IDs run over [offset, offset+global).
func (q *Queue) EnqueueNDRangeKernelWithOffset(k cl.Kernel, goffset, global, local []int, wait []cl.Event) (cl.Event, error) {
	ck, ok := k.(*Kernel)
	if !ok {
		return nil, cl.Errf(cl.InvalidKernel, "foreign kernel object")
	}
	if goffset != nil && len(goffset) != len(global) {
		return nil, cl.Errf(cl.InvalidGlobalOffset, "offset has %d dimensions, global %d", len(goffset), len(global))
	}
	// The snapshot validates that every argument is set.
	args, argBufs, err := ck.snapshotArgs()
	if err != nil {
		return nil, err
	}
	return q.submit(&recCmd{op: protocol.GraphOpKernel, k: ck, args: args, argBufs: argBufs,
		goffset: goffset, global: global, local: local}, wait)
}

// EnqueueMarker enqueues a marker command.
func (q *Queue) EnqueueMarker() (cl.Event, error) {
	return q.submit(&recCmd{op: protocol.GraphOpMarker}, nil)
}

// EnqueueBarrier enqueues a barrier command. Remote failures are deferred
// to the next Finish (the command has no event to carry them).
func (q *Queue) EnqueueBarrier() error {
	_, err := q.submit(&recCmd{op: protocol.GraphOpBarrier}, nil)
	return err
}

// Flush forwards clFlush as a one-way request. Any deferred failure
// already reported for this queue is surfaced (but not consumed — Finish
// remains the authoritative synchronization point).
func (q *Queue) Flush() error {
	q.mu.Lock()
	recording := q.rec != nil
	q.mu.Unlock()
	if recording {
		return cl.Errf(cl.InvalidOperation, "flush while recording")
	}
	if err := q.srv.send(protocol.MsgFlush, func(w *protocol.Writer) {
		w.U64(q.id)
	}); err != nil {
		return err
	}
	return q.srv.peekQueueError(q.id)
}

// Finish blocks until the remote queue has drained, then reports (and
// consumes) the first deferred failure of the one-way commands pipelined
// since the previous synchronization point.
func (q *Queue) Finish() error {
	q.mu.Lock()
	recording := q.rec != nil
	q.mu.Unlock()
	if recording {
		return cl.Errf(cl.InvalidOperation, "finish while recording")
	}
	_, err := q.srv.call(protocol.MsgFinish, func(w *protocol.Writer) {
		w.U64(q.id)
	})
	// The daemon drained the queue before responding and every completion
	// notification was ordered ahead of the response, but local hooks run
	// one goroutine hop behind the dispatcher. Wait for the stubs so
	// event statuses honour the clFinish guarantee; command execution
	// errors stay on the events themselves.
	q.mu.Lock()
	pend := q.inFlight
	q.inFlight = nil
	q.mu.Unlock()
	for _, ev := range pend {
		_ = settle(ev)
	}
	// An object-plane failure (a refused create, say) came first and is why
	// the commands naming the object then failed on the queue.
	derr := q.srv.takeQueueError(q.id)
	if serr := q.srv.takeQueueError(0); serr != nil {
		return serr
	}
	if derr != nil {
		return derr
	}
	return err
}

// Release releases the remote queue.
func (q *Queue) Release() error {
	q.mu.Lock()
	q.released = true
	q.mu.Unlock()
	q.ctx.forgetQueue(q)
	err := q.srv.send(protocol.MsgReleaseQueue, func(w *protocol.Writer) {
		w.U64(q.id)
	})
	if err != nil && !q.srv.Connected() {
		// The queue died with its daemon; releasing it is a no-op, and
		// teardown after a failure must not fail on it.
		return nil
	}
	return err
}

// isReleased reports whether Release has been called.
func (q *Queue) isReleased() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.released
}
