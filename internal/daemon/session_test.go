package daemon

import (
	"bytes"
	"io"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// TestRequestClassEnqueueRejected: the command path is served in one-way
// class only. A request-class MsgEnqueueWrite or MsgEnqueueKernel frame
// is answered with InvalidOperation and never executed — no event is
// registered, the buffer is untouched, the write's pipelined payload is
// consumed rather than parked in the session, and the session keeps
// serving.
func TestRequestClassEnqueueRejected(t *testing.T) {
	const (
		ctxID, queueID, bufID, progID, kernelID = 1, 2, 3, 4, 5
		size                                    = 64
	)
	d := testDaemon(t, false)
	// An in-process endpoint pair hands stream payloads across by
	// reference, so the payload's release callback firing is the proof
	// that the daemon consumed the stream.
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(d, serverEP)
	sess.start()
	gs := startGraphSession(clientEP)
	defer gs.ep.Close()

	ok := func(what string, env protocol.Envelope) {
		t.Helper()
		if st := cl.ErrorCode(env.Body.I32()); st != cl.Success {
			t.Fatalf("%s: %v", what, st)
		}
	}
	ok("hello", gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		w.String("reject-test")
		w.String("")
	}))
	ok("create context", gs.call(t, 2, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(ctxID)
		w.U64s([]uint64{0})
	}))
	ok("create queue", gs.call(t, 3, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(queueID)
		w.U64(ctxID)
		w.U64(0)
	}))
	ok("create buffer", gs.call(t, 4, protocol.MsgCreateBuffer, func(w *protocol.Writer) {
		w.U64(bufID)
		w.U64(ctxID)
		w.U32(uint32(cl.MemReadWrite))
		w.I64(size)
		w.U32(0)
	}))
	ok("create program", gs.call(t, 5, protocol.MsgCreateProgram, func(w *protocol.Writer) {
		w.U64(progID)
		w.U64(ctxID)
		w.String(`kernel void fill(global int* p) { p[get_global_id(0)] = 7; }`)
	}))
	ok("build", gs.call(t, 6, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(progID)
		w.String("")
	}))
	ok("create kernel", gs.call(t, 7, protocol.MsgCreateKernel, func(w *protocol.Writer) {
		w.U64(kernelID)
		w.U64(progID)
		w.String("fill")
	}))
	ok("set arg", gs.call(t, 8, protocol.MsgSetKernelArg, func(w *protocol.Writer) {
		w.U64(kernelID)
		w.U32(0)
		w.U8(protocol.ArgValBuffer)
		w.U64(bufID)
	}))

	rejected := func(what string, env protocol.Envelope) {
		t.Helper()
		if st := cl.ErrorCode(env.Body.I32()); st != cl.InvalidOperation {
			t.Fatalf("request-class %s answered %v, want InvalidOperation", what, st)
		}
	}

	// Request-class write, payload pipelined behind the frame.
	stream := gs.ep.OpenStream()
	consumed := make(chan struct{})
	payload := bytes.Repeat([]byte{0xAB}, size)
	rejected("EnqueueWrite", gs.call(t, 9, protocol.MsgEnqueueWrite, func(w *protocol.Writer) {
		w.U64(queueID)
		w.U64(bufID)
		w.I64(0)
		w.I64(size)
		w.U32(stream.ID())
		w.U64(100) // event ID
		w.U64s(nil)
	}))
	if err := stream.WriteOwned(payload, func() { close(consumed) }); err != nil {
		t.Fatal(err)
	}
	if err := stream.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-consumed:
	case <-time.After(5 * time.Second):
		t.Fatal("rejected write's payload stream was never drained")
	}

	// Request-class launch of a fully bound kernel.
	rejected("EnqueueKernel", gs.call(t, 10, protocol.MsgEnqueueKernel, func(w *protocol.Writer) {
		w.U64(queueID)
		w.U64(kernelID)
		w.Ints(nil)
		w.Ints([]int{size / 4})
		w.Ints(nil)
		w.U64(101) // event ID
		w.U64s(nil)
	}))

	sess.mu.Lock()
	events := len(sess.events)
	sess.mu.Unlock()
	if events != 0 {
		t.Fatalf("%d events registered by rejected frames, want 0", events)
	}

	// The session still serves the one-way command path, and neither the
	// write nor the kernel touched the buffer.
	back := gs.ep.OpenStream()
	gs.oneway(t, protocol.MsgEnqueueRead, func(w *protocol.Writer) {
		w.U64(queueID)
		w.U64(bufID)
		w.I64(0)
		w.I64(size)
		w.U32(back.ID())
		w.U64(102)
		w.U64s(nil)
	})
	got := make([]byte, size)
	if _, err := io.ReadFull(back, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, size)) {
		t.Fatalf("buffer modified by a rejected command: % x", got[:8])
	}
	env := gs.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 102 {
		t.Fatalf("completion for event %d, want 102", id)
	}
	ok("finish", gs.call(t, 11, protocol.MsgFinish, func(w *protocol.Writer) { w.U64(queueID) }))
}
