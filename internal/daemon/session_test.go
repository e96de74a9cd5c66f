package daemon

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

// Object IDs of the session commandSession sets up.
const (
	csCtx, csQueue, csBuf, csProg, csKernel = 1, 2, 3, 4, 5
	csSize                                  = 64 // bytes in buffer csBuf
)

// commandSession starts a raw session holding a queue, a zeroed buffer
// and a kernel "fill" bound to that buffer. The in-process endpoint pair
// hands stream payloads across by reference, so a payload's release
// callback firing is the proof that the daemon consumed the stream.
func commandSession(t *testing.T) (*graphSession, *session) {
	t.Helper()
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(testDaemon(t, false), serverEP)
	sess.start()
	gs := startGraphSession(clientEP)
	t.Cleanup(func() { gs.ep.Close() })

	ok := func(what string, st cl.ErrorCode) {
		t.Helper()
		if st != cl.Success {
			t.Fatalf("%s: %v", what, st)
		}
	}
	ok("hello", cl.ErrorCode(gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "command-test"})
	}).Body.I32()))
	ok("create context", gs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(csCtx)
		w.U64s([]uint64{0})
	}))
	ok("create queue", gs.tell(t, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(csQueue)
		w.U64(csCtx)
		w.U64(0)
	}))
	ok("create buffer", gs.tell(t, protocol.MsgCreateBuffer, func(w *protocol.Writer) {
		w.U64(csBuf)
		w.U64(csCtx)
		w.U32(uint32(cl.MemReadWrite))
		w.I64(csSize)
		w.U32(0)
	}))
	ok("create program", gs.tell(t, protocol.MsgCreateProgram, func(w *protocol.Writer) {
		w.U64(csProg)
		w.U64(csCtx)
		w.String(`kernel void fill(global int* p) { p[get_global_id(0)] = 7; }`)
	}))
	ok("build", gs.tell(t, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(csProg)
		w.String("")
	}))
	ok("create kernel", gs.tell(t, protocol.MsgCreateKernel, func(w *protocol.Writer) {
		w.U64(csKernel)
		w.U64(csProg)
		w.String("fill")
	}))
	ok("set arg", gs.tell(t, protocol.MsgSetKernelArg, func(w *protocol.Writer) {
		protocol.PutSetKernelArg(w, protocol.SetKernelArg{KernelID: csKernel, Index: 0,
			Arg: protocol.GraphKernelArg{Kind: protocol.ArgValBuffer, Raw: csBuf}})
	}))
	return gs, sess
}

// sendPayload ships payload on an announced write stream and waits for
// the daemon to consume it.
func sendPayload(t *testing.T, stream *gcf.Stream, payload []byte) {
	t.Helper()
	consumed := make(chan struct{})
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
}

// expectUntouched checks that the session still serves the one-way
// command path and that buffer csBuf is still all zeros, then drains the
// queue.
func expectUntouched(t *testing.T, gs *graphSession, eventID uint64) {
	t.Helper()
	back := gs.ep.OpenStream()
	gs.enqueue(t, protocol.Enqueue{QueueID: csQueue, EventID: eventID,
		Cmd: protocol.GraphCommand{Op: protocol.GraphOpRead, BufID: csBuf, Size: csSize, StreamID: back.ID()}})
	got := make([]byte, csSize)
	if _, err := io.ReadFull(back, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, csSize)) {
		t.Fatalf("buffer modified by a rejected command: % x", got[:8])
	}
	gs.completion(t, eventID)
	if env := gs.call(t, 99, protocol.MsgFinish, func(w *protocol.Writer) { w.U64(csQueue) }); cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("finish failed after rejected commands")
	}
}

// TestRequestClassEnqueueRejected: the command path is served in one-way
// class only. A request-class MsgEnqueueWrite or MsgEnqueueKernel frame
// is answered with InvalidOperation and never executed — no event is
// registered, the buffer is untouched, the write's pipelined payload is
// consumed rather than parked in the session, and the session keeps
// serving.
func TestRequestClassEnqueueRejected(t *testing.T) {
	gs, sess := commandSession(t)

	rejected := func(what string, env protocol.Envelope) {
		t.Helper()
		if st := cl.ErrorCode(env.Body.I32()); st != cl.InvalidOperation {
			t.Fatalf("request-class %s answered %v, want InvalidOperation", what, st)
		}
	}

	// Request-class write, payload pipelined behind the frame.
	stream := gs.ep.OpenStream()
	rejected("EnqueueWrite", gs.call(t, 9, protocol.MsgEnqueueWrite, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: csQueue, EventID: 100,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpWrite, BufID: csBuf, Size: csSize, StreamID: stream.ID()}})
	}))
	sendPayload(t, stream, bytes.Repeat([]byte{0xAB}, csSize))

	// Request-class launch of a fully bound kernel.
	rejected("EnqueueKernel", gs.call(t, 10, protocol.MsgEnqueueKernel, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: csQueue, EventID: 101,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpKernel, KernelID: csKernel, Global: []int{csSize / 4}}})
	}))

	sess.mu.Lock()
	events := len(sess.events)
	sess.mu.Unlock()
	if events != 0 {
		t.Fatalf("%d events registered by rejected frames, want 0", events)
	}
	expectUntouched(t, gs, 102)
}

// TestMalformedEnqueueRejected: one-way command frames whose ranges lie
// outside their buffers — negative sizes and offset+size wrap-around
// included — or that name unknown objects come back as failure notices
// with the right status; none executes (a copy of size -8 used to panic
// the native queue goroutine, and with it the daemon), announced streams
// are consumed, and the session keeps serving.
func TestMalformedEnqueueRejected(t *testing.T) {
	gs, sess := commandSession(t)
	for i, tc := range []struct {
		name string
		cmd  protocol.GraphCommand
		want cl.ErrorCode
	}{
		{"copy of negative size", protocol.GraphCommand{Op: protocol.GraphOpCopy, SrcID: csBuf, DstID: csBuf, Offset: 8, DstOff: 8, Size: -8}, cl.InvalidValue},
		{"copy past the source", protocol.GraphCommand{Op: protocol.GraphOpCopy, SrcID: csBuf, DstID: csBuf, Offset: 60, Size: 8}, cl.InvalidValue},
		{"copy wrapping the destination", protocol.GraphCommand{Op: protocol.GraphOpCopy, SrcID: csBuf, DstID: csBuf, DstOff: math.MaxInt64 - 3, Size: 8}, cl.InvalidValue},
		{"copy from an unknown buffer", protocol.GraphCommand{Op: protocol.GraphOpCopy, SrcID: 999, DstID: csBuf, Size: 8}, cl.InvalidMemObject},
		{"write of negative size", protocol.GraphCommand{Op: protocol.GraphOpWrite, BufID: csBuf, Size: -8}, cl.InvalidValue},
		{"write past the buffer", protocol.GraphCommand{Op: protocol.GraphOpWrite, BufID: csBuf, Offset: 1, Size: csSize}, cl.InvalidValue},
		{"read of huge size", protocol.GraphCommand{Op: protocol.GraphOpRead, BufID: csBuf, Size: 1 << 62}, cl.InvalidValue},
		{"launch of an unknown kernel", protocol.GraphCommand{Op: protocol.GraphOpKernel, KernelID: 999, Global: []int{4}}, cl.InvalidKernel},
	} {
		eventID := uint64(200 + i)
		var stream *gcf.Stream
		if tc.cmd.Op == protocol.GraphOpWrite || tc.cmd.Op == protocol.GraphOpRead {
			stream = gs.ep.OpenStream()
			tc.cmd.StreamID = stream.ID()
		}
		gs.enqueue(t, protocol.Enqueue{QueueID: csQueue, EventID: eventID, Cmd: tc.cmd})
		switch tc.cmd.Op {
		case protocol.GraphOpWrite:
			sendPayload(t, stream, make([]byte, 8))
		case protocol.GraphOpRead:
			// A failed read closes its stream empty.
			if n, err := io.Copy(io.Discard, stream); n != 0 || err != nil {
				t.Fatalf("%s: read stream carried %d bytes (err %v), want an empty close", tc.name, n, err)
			}
		}
		f := gs.completion(t, eventID)
		if f.QueueID != csQueue || f.EventID != eventID || cl.ErrorCode(f.Status) != tc.want {
			t.Fatalf("%s: failure = %+v, want status %v for event %d", tc.name, f, tc.want, eventID)
		}
	}
	// A frame whose opcode contradicts its message type is dropped whole.
	gs.oneway(t, protocol.MsgEnqueueMarker, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: csQueue, EventID: 300,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpKernel, KernelID: csKernel, Global: []int{csSize / 4}}})
	})

	sess.mu.Lock()
	events := len(sess.events)
	sess.mu.Unlock()
	if events != 0 {
		t.Fatalf("%d events registered by rejected frames, want 0", events)
	}
	expectUntouched(t, gs, 301)
}

// A Release* cut short releases nothing: its object ID used to decode as
// 0, object 0 was deleted and the request answered Success. It is refused
// as malformed, which for a one-way frame is a count, not a notice.
func TestTruncatedReleaseLeavesObjectZero(t *testing.T) {
	gs, sess := commandSession(t)
	if st := gs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(0)
		w.U64s([]uint64{0})
	}); st != cl.Success {
		t.Fatalf("create context 0: %v", st)
	}
	if st := gs.tell(t, protocol.MsgReleaseContext, func(w *protocol.Writer) { w.U32(0) }); st != cl.Success {
		t.Errorf("truncated release answered with a failure notice: %v", st)
	}
	if n := sess.conn.Unserved()[protocol.MsgReleaseContext]; n != 1 {
		t.Errorf("truncated release counted %d times as refused, want 1", n)
	}
	sess.mu.Lock()
	_, kept := sess.contexts[0]
	sess.mu.Unlock()
	if !kept {
		t.Error("truncated release deleted context 0")
	}
}

// A session that is not retained keeps nothing once its connection is
// gone, however many one-way creates were still queued at the close: the
// close notice runs after the last of them, so retire takes them all. A
// notice run beside the dispatcher would let creates land in the tables
// retire had just emptied, where nothing ever releases them.
func TestCloseAfterQueuedCreatesKeepsNothing(t *testing.T) {
	// Submits to a lane the session never opened are logged: the log of
	// the first holds the dispatcher, that of the second marks the last
	// frame handled.
	held, release, last := make(chan struct{}), make(chan struct{}), make(chan struct{})
	submits := 0
	plat := native.NewPlatform("p", "v", []device.Config{device.TestCPU("cpu0")})
	d, err := New(Config{Name: "srv", Platform: plat, Logf: func(format string, _ ...any) {
		if !strings.Contains(format, "unknown lane") {
			return
		}
		if submits++; submits == 1 {
			close(held)
			<-release
		} else {
			close(last)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(d, serverEP)
	sess.start()
	gs := startGraphSession(clientEP)
	if st := cl.ErrorCode(gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "close-test"})
	}).Body.I32()); st != cl.Success {
		t.Fatalf("hello: %v", st)
	}
	// The creates queue behind the held submit (a local send lands in the
	// daemon's queue before it returns), and the link closes behind them.
	submit := func(w *protocol.Writer) { protocol.PutServeSubmit(w, protocol.ServeSubmit{ServeID: 99}) }
	gs.oneway(t, protocol.MsgServeSubmit, submit)
	<-held
	for id := uint64(1); id <= 256; id++ {
		gs.oneway(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
			w.U64(id)
			w.U64s([]uint64{0})
		})
	}
	gs.oneway(t, protocol.MsgServeSubmit, submit)
	gs.ep.Close()
	close(release)
	<-last
	<-sess.gone
	// The notice closes gone before it retires the session.
	deadline := time.Now().Add(5 * time.Second)
	for sess.objects() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the closed session still holds %d objects", sess.objects())
		}
		time.Sleep(time.Millisecond)
	}
}
