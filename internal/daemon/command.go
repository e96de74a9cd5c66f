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
// MsgExecGraph, it is the same protocol.GraphCommand: resolved into a
// native.Command against the session's object tables by one function
// (resolve), its kernel arguments bound by one (bindArg), its inbound
// payload staged by one (stage) and put on the native queue, with the
// staging around it, by one (enqueue).

// payload is a write's staged bytes: a pooled block, shared because a
// cached graph's block has more readers than one command (graph.go), and
// the gate that completes once the bytes have landed in it.
type payload struct {
	block *gcf.SharedPayload
	gate  cl.Event
}

// bufferRange resolves a buffer ID and checks [offset, offset+size)
// against the buffer. Offsets and sizes come off the wire: the check is
// written so that neither a negative value nor offset+size overflow can
// pass.
func (s *session) bufferRange(bufID uint64, offset, size int) (*native.Buffer, error) {
	s.mu.Lock()
	buf, _ := s.buffers[bufID].(*native.Buffer)
	s.mu.Unlock()
	if buf == nil {
		return nil, cl.Errf(cl.InvalidMemObject, "unknown buffer %d", bufID)
	}
	if size < 0 || offset < 0 || size > buf.Size() || offset > buf.Size()-size {
		return nil, cl.Errf(cl.InvalidValue, "range (offset %d size %d) outside buffer %d of %d bytes", offset, size, bufID, buf.Size())
	}
	return buf, nil
}

// nativeOps maps wire opcodes onto native ones.
var nativeOps = [...]native.Op{
	protocol.GraphOpWrite:   native.OpWrite,
	protocol.GraphOpRead:    native.OpRead,
	protocol.GraphOpCopy:    native.OpCopy,
	protocol.GraphOpKernel:  native.OpKernel,
	protocol.GraphOpMarker:  native.OpMarker,
	protocol.GraphOpBarrier: native.OpMarker,
}

// resolve maps a wire command onto the session's objects. frozen gives a
// kernel launch a private clone bound to the command's argument snapshot
// — a registered graph runs later, and eager SetKernelArg calls must not
// leak into it — where an eager launch uses the session kernel as bound.
// A write's Host is left to its staging (enqueue).
func (s *session) resolve(c protocol.GraphCommand, frozen bool) (native.Command, error) {
	cmd := native.Command{Offset: int(c.Offset), DstOffset: int(c.DstOff), Size: int(c.Size)}
	if int(c.Op) < len(nativeOps) {
		cmd.Op = nativeOps[c.Op]
	}
	var err error
	switch cmd.Op {
	case native.OpWrite, native.OpRead:
		cmd.Buf, err = s.bufferRange(c.BufID, cmd.Offset, cmd.Size)
	case native.OpCopy:
		if cmd.Buf, err = s.bufferRange(c.SrcID, cmd.Offset, cmd.Size); err == nil {
			cmd.Dst, err = s.bufferRange(c.DstID, cmd.DstOffset, cmd.Size)
		}
	case native.OpKernel:
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
		cmd.Kernel, cmd.Global = k, c.Global
		// The wire cannot tell a nil slice from an empty one.
		if len(c.GOffset) > 0 {
			cmd.GOffset = c.GOffset
		}
		if len(c.Local) > 0 {
			cmd.Local = c.Local
		}
	case native.OpMarker:
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

// readStaged enqueues a read (cmd) into a pooled block — a fresh
// multi-megabyte allocation per read would make the allocator the
// dominant transfer cost — and hands the block to done once the read
// completed (nil when it failed). done owns the block and returns it with
// gcf.PutPayload.
func readStaged(q *native.Queue, cmd native.Command, waits []cl.Event, done func([]byte, cl.CommandStatus)) (cl.Event, error) {
	staged := gcf.GetPayload(cmd.Size)
	cmd.Host = staged
	ev, err := q.EnqueueCommand(&cmd, waits)
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
// follows in the command's MsgCompleted.
func (s *session) closeStream(streamID uint32) {
	st := s.ep.Stream(streamID)
	if err := st.CloseWrite(); err != nil {
		s.d.logf("daemon %s: read-back stream close: %v", s.d.cfg.Name, err)
	}
	st.Release()
}

// enqueue puts a resolved command on the native queue with its staging
// around it, and returns its event. A write (p, its payload) is gated on
// the payload having landed, so queue order is preserved while the
// network transfer overlaps with earlier commands, and holds the block
// for as long as it reads it. A read lands in a pooled block that ships
// back on readStream; once enqueue returns without error the read's
// completion owns that stream and closes it on success and failure
// alike.
func (s *session) enqueue(q *native.Queue, cmd native.Command, p payload, waits []cl.Event, readStream uint32) (cl.Event, error) {
	if cmd.Op == native.OpRead {
		return readStaged(q, cmd, waits, func(staged []byte, _ cl.CommandStatus) {
			if staged != nil {
				// Zero-copy hand-off: the frames reference the block until
				// the deferred flush writes them out.
				if err := s.ep.Stream(readStream).WriteOwned(staged, func() { gcf.PutPayload(staged) }); err != nil {
					s.d.logf("daemon %s: read-back stream write: %v", s.d.cfg.Name, err)
				}
			}
			s.closeStream(readStream)
		})
	}
	block := p.block
	if block == nil {
		return q.EnqueueCommand(&cmd, waits)
	}
	cmd.Host = block.Data
	block.Hold()
	ev, err := q.EnqueueCommand(&cmd, append(waits, p.gate))
	if err != nil {
		block.Drop()
		return nil, err
	}
	if cerr := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) { block.Drop() }); cerr != nil {
		s.d.logf("daemon %s: write payload callback: %v", s.d.cfg.Name, cerr)
	}
	return ev, nil
}

// handleEnqueue serves the six MsgEnqueue* one-way commands. A command
// that cannot be enqueued is reported in a MsgCompleted naming its queue
// and event (one that fails while running, in its event's notice alone),
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
	var p payload
	if cmd.Op == native.OpWrite {
		// The pooled staging block is held by the receive goroutine and by
		// this handler until the write holds it; it re-enters the pool
		// only after every holder is done with it.
		block := gcf.NewSharedPayload(cmd.Size)
		block.Hold()
		gate, err := s.stage(streamID, block.Data, func(err error) error { block.Drop(); return err })
		if err != nil {
			gcf.PutPayload(block.Data) // neither holder ever started
			fail(err)
			return
		}
		streamID = 0 // the stager consumes the stream from here on
		p = payload{block: block, gate: gate}
	}
	ev, err := s.enqueue(q, cmd, p, waits, streamID)
	if p.block != nil {
		p.block.Drop()
	}
	if err != nil {
		fail(err)
		return
	}
	s.registerEvent(e.EventID, ev, protocol.Completion{})
}
