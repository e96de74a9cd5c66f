package daemon

import (
	"io"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// A queue command on the daemon. Whether it arrives eagerly (one
// MsgEnqueue* frame) or inside a registered graph replayed by
// MsgExecGraph, it is the same protocol.GraphCommand: resolved against
// the session's object tables by one function (resolve), its kernel
// arguments bound by one (bindArg), its inbound payload staged by one
// (stage) and put on the native queue by one (enqueue).

// command is one resolved queue command. The mutable slots of a cached
// graph's commands (payload, kernel clone) are replaced, never mutated in
// place, so an already-enqueued replay keeps the values it was fired with.
type command struct {
	op uint8 // protocol.GraphOp*

	buf      cl.Buffer // write/read target
	src, dst cl.Buffer // copy endpoints
	offset   int
	dstOff   int
	size     int

	payload     []byte   // write payload, staged from its stream
	payloadGate cl.Event // completes when the staged payload has fully landed
	// cached is the pooled block behind payload in a cached graph, where
	// the bytes have more readers than one command (graph.go).
	cached *gcf.SharedPayload

	k       *native.Kernel
	goffset []int // global work offset (nil = zero)
	global  []int
	local   []int
}

// bufferRange resolves a buffer ID and checks [offset, offset+size)
// against the buffer. Offsets and sizes come off the wire: the check is
// written so that neither a negative value nor offset+size overflow can
// pass.
func (s *session) bufferRange(bufID uint64, offset, size int) (cl.Buffer, error) {
	s.mu.Lock()
	buf := s.buffers[bufID]
	s.mu.Unlock()
	if buf == nil {
		return nil, cl.Errf(cl.InvalidMemObject, "unknown buffer %d", bufID)
	}
	if size < 0 || offset < 0 || size > buf.Size() || offset > buf.Size()-size {
		return nil, cl.Errf(cl.InvalidValue, "range (offset %d size %d) outside buffer %d of %d bytes", offset, size, bufID, buf.Size())
	}
	return buf, nil
}

// resolve maps a wire command onto the session's objects. frozen gives a
// kernel launch a private clone bound to the command's argument snapshot
// — a registered graph runs later, and eager SetKernelArg calls must not
// leak into it — where an eager launch uses the session kernel as bound.
func (s *session) resolve(c protocol.GraphCommand, frozen bool) (command, error) {
	cmd := command{op: c.Op, offset: int(c.Offset), dstOff: int(c.DstOff), size: int(c.Size)}
	var err error
	switch c.Op {
	case protocol.GraphOpWrite, protocol.GraphOpRead:
		cmd.buf, err = s.bufferRange(c.BufID, cmd.offset, cmd.size)
	case protocol.GraphOpCopy:
		if cmd.src, err = s.bufferRange(c.SrcID, cmd.offset, cmd.size); err == nil {
			cmd.dst, err = s.bufferRange(c.DstID, cmd.dstOff, cmd.size)
		}
	case protocol.GraphOpKernel:
		s.mu.Lock()
		k, ok := s.kernels[c.KernelID].(*native.Kernel)
		s.mu.Unlock()
		if !ok {
			return cmd, cl.Errf(cl.InvalidKernel, "unknown kernel %d", c.KernelID)
		}
		if frozen {
			k = k.Clone()
			if len(c.Args) != k.NumArgs() {
				return cmd, cl.Errf(cl.InvalidKernelArgs, "kernel has %d arguments, snapshot has %d", k.NumArgs(), len(c.Args))
			}
			for i, a := range c.Args {
				if err := s.bindArg(k, i, a); err != nil {
					return cmd, err
				}
			}
		}
		cmd.k, cmd.global = k, c.Global
		// The wire cannot tell a nil slice from an empty one.
		if len(c.GOffset) > 0 {
			cmd.goffset = c.GOffset
		}
		if len(c.Local) > 0 {
			cmd.local = c.Local
		}
	case protocol.GraphOpMarker, protocol.GraphOpBarrier:
	default:
		err = cl.Errf(cl.InvalidValue, "unknown command op %d", c.Op)
	}
	return cmd, err
}

// bindArg binds one wire argument value to argument i of k: the one place
// a protocol.ArgVal* kind becomes a native binding, for MsgSetKernelArg,
// registration snapshots and replay updates alike. A sub-buffer arrives
// as root ID + range and is materialized here as a native view.
func (s *session) bindArg(k *native.Kernel, i int, a protocol.GraphKernelArg) error {
	switch a.Kind {
	case protocol.ArgValScalar:
		return k.SetRawArg(i, a.Raw)
	case protocol.ArgValLocal:
		return k.SetArg(i, cl.LocalSpace{Size: int(a.Local)})
	case protocol.ArgValBuffer, protocol.ArgValSubBuffer:
		s.mu.Lock()
		buf := s.buffers[a.Raw]
		s.mu.Unlock()
		if buf == nil {
			return cl.Errf(cl.InvalidMemObject, "kernel argument %d: unknown buffer %d", i, a.Raw)
		}
		if a.Kind == protocol.ArgValSubBuffer {
			nb, ok := buf.(*native.Buffer)
			if !ok {
				return cl.Errf(cl.InvalidMemObject, "kernel argument %d: buffer is not a native object", i)
			}
			var err error
			if buf, err = nb.CreateSubBuffer(int(a.SubOrg), int(a.SubLen)); err != nil {
				return err
			}
		}
		return k.SetArg(i, buf)
	}
	return cl.Errf(cl.InvalidValue, "kernel argument %d: bad kind %d", i, a.Kind)
}

// stage reads len(dst) bytes from a client stream into dst on its own
// goroutine — the dispatcher never waits for bulk data — and returns a
// gate that completes once they have landed; whatever consumes dst waits
// on it. landed, when set, runs after the read with its error and decides
// the gate's outcome. A zero stream ID is refused: staging a phantom
// stream would park the gate, and every command behind it, forever.
func (s *session) stage(streamID uint32, dst []byte, landed func(error) error) (cl.Event, error) {
	if streamID == 0 {
		return nil, cl.Errf(cl.InvalidValue, "payload without a stream")
	}
	stream := s.ep.Stream(streamID)
	gate := native.NewUserEvent()
	go func() {
		_, err := io.ReadFull(stream, dst)
		if err == nil {
			stream.WaitEOF()
		}
		stream.Release()
		if landed != nil {
			err = landed(err)
		}
		st := cl.Complete
		if err != nil {
			s.d.logf("daemon %s: payload stream %d: %v", s.d.cfg.Name, streamID, err)
			st = cl.CommandStatus(cl.InvalidValue)
		}
		if serr := gate.SetStatus(st); serr != nil {
			s.d.logf("daemon %s: payload gate: %v", s.d.cfg.Name, serr)
		}
	}()
	return gate, nil
}

// readStaged enqueues a device read of [offset, offset+size) into a
// pooled block — a fresh multi-megabyte allocation per read would make
// the allocator the dominant transfer cost — and hands the block to done
// once the read completed (nil when it failed). done owns the block and
// returns it with gcf.PutPayload.
func readStaged(q cl.Queue, buf cl.Buffer, offset, size int, waits []cl.Event, done func([]byte, cl.CommandStatus)) (cl.Event, error) {
	staged := gcf.GetPayload(size)
	ev, err := q.EnqueueReadBuffer(buf, false, offset, staged, waits)
	if err != nil {
		gcf.PutPayload(staged)
		return nil, err
	}
	err = ev.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		if st != cl.Complete {
			gcf.PutPayload(staged)
			staged = nil
		}
		done(staged, st)
	})
	return ev, err
}

// closeStream ends a client-announced read stream. After a failure it is
// closed empty, so a receiver blocked on it unblocks; the real error
// follows as MsgCommandFailed.
func (s *session) closeStream(streamID uint32) {
	st := s.ep.Stream(streamID)
	if err := st.CloseWrite(); err != nil {
		s.d.logf("daemon %s: read-back stream close: %v", s.d.cfg.Name, err)
	}
	st.Release()
}

// enqueue puts a resolved command on the native queue and returns its
// event. readStream is the stream a read ships its data back on; once
// enqueue returns without error the read's completion owns that stream
// and closes it on success and failure alike.
func (s *session) enqueue(q *native.Queue, cmd *command, waits []cl.Event, readStream uint32) (cl.Event, error) {
	switch cmd.op {
	case protocol.GraphOpWrite:
		// The write is gated on its payload having landed, so queue order
		// is preserved while the network transfer overlaps with earlier
		// commands.
		return q.EnqueueWriteBuffer(cmd.buf, false, cmd.offset, cmd.payload, append(waits, cmd.payloadGate))
	case protocol.GraphOpRead:
		return readStaged(q, cmd.buf, cmd.offset, cmd.size, waits, func(staged []byte, _ cl.CommandStatus) {
			if staged != nil {
				// Zero-copy hand-off: the frames reference the block until
				// the deferred flush writes them out.
				if err := s.ep.Stream(readStream).WriteOwned(staged, func() { gcf.PutPayload(staged) }); err != nil {
					s.d.logf("daemon %s: read-back stream write: %v", s.d.cfg.Name, err)
				}
			}
			s.closeStream(readStream)
		})
	case protocol.GraphOpCopy:
		return q.EnqueueCopyBuffer(cmd.src, cmd.dst, cmd.offset, cmd.dstOff, cmd.size, waits)
	case protocol.GraphOpKernel:
		return q.EnqueueNDRangeKernelWithOffset(cmd.k, cmd.goffset, cmd.global, cmd.local, waits)
	}
	// Markers and barriers: the queue is in order, a no-op command does.
	return q.EnqueueMarkerAfter(waits)
}

// handleEnqueue serves the six MsgEnqueue* one-way commands. Any failure
// is reported as MsgCommandFailed against the command's queue and event,
// and a stream the frame announced is never left dangling: a failed write
// still drains its payload (it is pipelined behind the frame), a failed
// read closes its stream empty so a client blocked on the download
// unblocks.
func (s *session) handleEnqueue(c rpc.Call) {
	e := protocol.GetEnqueue(c.Body)
	if c.Body.Err() != nil || e.MsgType() != c.Type {
		c.Refuse(cl.InvalidValue)
		return
	}
	op, streamID := e.Cmd.Op, e.Cmd.StreamID
	fail := func(err error) {
		switch {
		case streamID == 0:
		case op == protocol.GraphOpWrite:
			s.drainStream(streamID)
		case op == protocol.GraphOpRead:
			s.closeStream(streamID)
		}
		s.fail(c, e.QueueID, e.EventID, err)
	}
	s.mu.Lock()
	q, ok := s.queues[e.QueueID].(*native.Queue)
	s.mu.Unlock()
	if !ok {
		fail(cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", e.QueueID))
		return
	}
	cmd, err := s.resolve(e.Cmd, false)
	if err != nil {
		fail(err)
		return
	}
	waits, err := s.resolveWaits(e.WaitIDs)
	if err != nil {
		fail(err)
		return
	}
	var staged *gcf.SharedPayload // write only
	if op == protocol.GraphOpWrite {
		// The pooled staging block has two holders, the receive goroutine
		// and the native write command; it re-enters the pool only after
		// BOTH are done with it.
		staged = gcf.NewSharedPayload(cmd.size)
		staged.Hold()
		gate, err := s.stage(streamID, staged.Data, func(err error) error { staged.Drop(); return err })
		if err != nil {
			gcf.PutPayload(staged.Data) // neither holder ever started
			fail(err)
			return
		}
		streamID = 0 // the stager consumes the stream from here on
		cmd.payload, cmd.payloadGate = staged.Data, gate
	}
	ev, err := s.enqueue(q, &cmd, waits, streamID)
	if err != nil {
		if staged != nil {
			staged.Drop()
		}
		fail(err)
		return
	}
	if staged != nil {
		if cerr := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) { staged.Drop() }); cerr != nil {
			s.d.logf("daemon %s: write staging callback: %v", s.d.cfg.Name, cerr)
		}
	}
	s.registerEvent(e.EventID, ev)
}
