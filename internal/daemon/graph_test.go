package daemon

import (
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// graphSession is a raw protocol session: it frames requests and one-way
// messages by hand and captures responses, failure notices
// (MsgCommandFailed) and every other notification, each on its own
// channel.
type graphSession struct {
	ep     *gcf.Endpoint
	resp   chan protocol.Envelope
	failed chan protocol.Envelope
	notify chan protocol.Envelope
}

func newGraphSession(t *testing.T, d *Daemon) *graphSession {
	t.Helper()
	a, b := simnet.Pipe(simnet.Unlimited())
	d.ServeConn(b)
	return startGraphSession(gcf.NewEndpoint(a, true))
}

// startGraphSession starts the client side of a raw session on ep.
func startGraphSession(ep *gcf.Endpoint) *graphSession {
	gs := &graphSession{
		ep:     ep,
		resp:   make(chan protocol.Envelope, 16),
		failed: make(chan protocol.Envelope, 16),
		notify: make(chan protocol.Envelope, 16),
	}
	gs.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			return
		}
		switch {
		case env.Class == protocol.ClassResponse:
			gs.resp <- env
		case env.Type == protocol.MsgCommandFailed:
			gs.failed <- env
		case env.Class == protocol.ClassNotification:
			gs.notify <- env
		}
	}, nil)
	return gs
}

func (gs *graphSession) call(t *testing.T, id uint32, typ protocol.MsgType, fill func(*protocol.Writer)) protocol.Envelope {
	t.Helper()
	w := protocol.NewWriter()
	if fill != nil {
		fill(w)
	}
	if err := gs.ep.Send(protocol.EncodeEnvelope(protocol.ClassRequest, id, typ, w)); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-gs.resp:
		return env
	case <-time.After(5 * time.Second):
		t.Fatalf("no response to %s", typ)
		return protocol.Envelope{}
	}
}

func (gs *graphSession) oneway(t *testing.T, typ protocol.MsgType, fill func(*protocol.Writer)) {
	t.Helper()
	w := protocol.NewWriter()
	if fill != nil {
		fill(w)
	}
	if err := gs.ep.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, typ, w)); err != nil {
		t.Fatal(err)
	}
}

// tell sends a one-way frame and one request behind it, and returns what
// the daemon made of the frame: the code of the MsgCommandFailed it wrote
// ahead of the request's answer, or Success. It reads no other failure
// notice than the one its own frame caused, so the test must not have
// left an earlier one unread.
func (gs *graphSession) tell(t *testing.T, typ protocol.MsgType, fill func(*protocol.Writer)) cl.ErrorCode {
	t.Helper()
	gs.oneway(t, typ, fill)
	if st := cl.ErrorCode(gs.call(t, 1, protocol.MsgGetServerInfo, nil).Body.I32()); st != cl.Success {
		t.Fatalf("GetServerInfo behind %s: %v", typ, st)
	}
	select {
	case env := <-gs.failed:
		f := protocol.GetCommandFailure(env.Body)
		if f.Op != typ {
			t.Fatalf("%s answered with the failure of %s", typ, f.Op)
		}
		return cl.ErrorCode(f.Status)
	default:
		return cl.Success
	}
}

// enqueue sends an eager command as its one-way MsgEnqueue* frame.
func (gs *graphSession) enqueue(t *testing.T, e protocol.Enqueue) {
	t.Helper()
	gs.oneway(t, e.MsgType(), func(w *protocol.Writer) { protocol.PutEnqueue(w, e) })
}

func (gs *graphSession) waitNotify(t *testing.T, typ protocol.MsgType) protocol.Envelope {
	t.Helper()
	ch := gs.notify
	if typ == protocol.MsgCommandFailed {
		ch = gs.failed
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-ch:
			if env.Type == typ {
				return env
			}
		case <-deadline:
			t.Fatalf("no %s notification", typ)
			return protocol.Envelope{}
		}
	}
}

// setupGraphQueue performs Hello + CreateContext + CreateQueue and
// registers a minimal one-marker graph under graphID.
func (gs *graphSession) setupGraphQueue(t *testing.T, queueID, graphID uint64) {
	t.Helper()
	if env := gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		w.String("graph-test")
		w.String("")
	}); cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("hello failed")
	}
	if st := gs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(10)
		w.U64s([]uint64{0})
	}); st != cl.Success {
		t.Fatal("create context failed")
	}
	if st := gs.tell(t, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(queueID)
		w.U64(10)
		w.U64(0)
	}); st != cl.Success {
		t.Fatal("create queue failed")
	}
	gs.oneway(t, protocol.MsgRegisterGraph, func(w *protocol.Writer) {
		protocol.PutRegisterGraph(w, protocol.RegisterGraph{
			GraphID:  graphID,
			QueueID:  queueID,
			Commands: []protocol.GraphCommand{{Op: protocol.GraphOpMarker}},
		})
	})
}

// TestGraphExecUnknownAndReleased: replaying an unknown or released
// graph ID must fail the iteration's event through the deferred
// MsgCommandFailed path and leave the queue usable (Finish still
// answers) instead of wedging it.
func TestGraphExecUnknownAndReleased(t *testing.T) {
	d := testDaemon(t, false)
	gs := newGraphSession(t, d)
	defer gs.ep.Close()
	gs.setupGraphQueue(t, 20, 30)

	// Happy path first: the registered one-marker graph replays and
	// completes its event.
	gs.oneway(t, protocol.MsgExecGraph, func(w *protocol.Writer) {
		protocol.PutExecGraph(w, protocol.ExecGraph{GraphID: 30, QueueID: 20, EventID: 100})
	})
	env := gs.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 100 {
		t.Fatalf("completion for event %d, want 100", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
		t.Fatalf("replay status = %v", st)
	}

	// Unknown graph ID: deferred failure naming the exec's queue and
	// event, not a wedged queue.
	gs.oneway(t, protocol.MsgExecGraph, func(w *protocol.Writer) {
		protocol.PutExecGraph(w, protocol.ExecGraph{GraphID: 999, QueueID: 20, EventID: 101})
	})
	env = gs.waitNotify(t, protocol.MsgCommandFailed)
	f := protocol.GetCommandFailure(env.Body)
	if f.QueueID != 20 || f.EventID != 101 || f.Op != protocol.MsgExecGraph {
		t.Fatalf("failure = %+v", f)
	}
	if cl.ErrorCode(f.Status) != cl.InvalidCommandBuffer {
		t.Fatalf("failure status = %v, want InvalidCommandBuffer", cl.ErrorCode(f.Status))
	}

	// Released graph ID: same deferred-failure path.
	if d.CachedGraphs() != 1 {
		t.Fatalf("CachedGraphs = %d, want 1", d.CachedGraphs())
	}
	gs.oneway(t, protocol.MsgReleaseGraph, func(w *protocol.Writer) { w.U64(30) })
	gs.oneway(t, protocol.MsgExecGraph, func(w *protocol.Writer) {
		protocol.PutExecGraph(w, protocol.ExecGraph{GraphID: 30, QueueID: 20, EventID: 102})
	})
	env = gs.waitNotify(t, protocol.MsgCommandFailed)
	f = protocol.GetCommandFailure(env.Body)
	if f.EventID != 102 || cl.ErrorCode(f.Status) != cl.InvalidCommandBuffer {
		t.Fatalf("released-graph failure = %+v", f)
	}
	if d.CachedGraphs() != 0 {
		t.Fatalf("CachedGraphs = %d after release, want 0", d.CachedGraphs())
	}

	// The queue survives all of it: Finish still answers success.
	if env := gs.call(t, 9, protocol.MsgFinish, func(w *protocol.Writer) {
		w.U64(20)
	}); cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("queue wedged after bad graph execs")
	}
}

// TestGraphSessionTeardownReleasesGraphs: closing a session drops its
// cached graphs (the per-session cache must not leak across clients).
func TestGraphSessionTeardownReleasesGraphs(t *testing.T) {
	d := testDaemon(t, false)
	gs := newGraphSession(t, d)
	gs.setupGraphQueue(t, 20, 30)

	// Another session's graphs are independent.
	gs2 := newGraphSession(t, d)
	defer gs2.ep.Close()
	gs2.setupGraphQueue(t, 21, 31)

	waitCount := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for d.CachedGraphs() != want {
			if time.Now().After(deadline) {
				t.Fatalf("CachedGraphs = %d, want %d", d.CachedGraphs(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCount(2)
	gs.ep.Close() // abnormal client termination
	waitCount(1)  // only the closed session's graph is gone
	gs2.ep.Close()
	waitCount(0)
}
