package daemon

import (
	"slices"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// graphSession is a raw protocol session: it frames requests and one-way
// messages by hand and captures responses, completion notices
// (MsgCompleted, decoded) and every other notification, each on its own
// channel.
type graphSession struct {
	ep     *gcf.Endpoint
	resp   chan protocol.Envelope
	done   chan protocol.Completion
	notify chan protocol.Envelope
	early  []protocol.Completion // notices read before anyone waited for them
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
		done:   make(chan protocol.Completion, 16),
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
		case env.Type == protocol.MsgCompleted:
			gs.done <- protocol.GetCompletion(env.Body)
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
// the daemon made of the frame: the code of the failure notice it wrote
// ahead of the request's answer, or Success. Other notices it reads on
// the way are kept for completion; a failure of typ left unread by the
// test would be taken for the frame's.
func (gs *graphSession) tell(t *testing.T, typ protocol.MsgType, fill func(*protocol.Writer)) cl.ErrorCode {
	t.Helper()
	gs.oneway(t, typ, fill)
	if st := cl.ErrorCode(gs.call(t, 1, protocol.MsgGetServerInfo, nil).Body.I32()); st != cl.Success {
		t.Fatalf("GetServerInfo behind %s: %v", typ, st)
	}
	for {
		select {
		case f := <-gs.done:
			if f.Status < 0 && f.Op == typ {
				return cl.ErrorCode(f.Status)
			}
			gs.early = append(gs.early, f)
		default:
			return cl.Success
		}
	}
}

// completion waits for the completion notice of eventID (0: a failure
// that names no event), keeping the notices of other events for their
// own waits.
func (gs *graphSession) completion(t *testing.T, eventID uint64) protocol.Completion {
	t.Helper()
	for i, f := range gs.early {
		if f.EventID == eventID {
			gs.early = slices.Delete(gs.early, i, i+1)
			return f
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-gs.done:
			if f.EventID == eventID {
				return f
			}
			gs.early = append(gs.early, f)
		case <-deadline:
			t.Fatalf("no completion notice for event %d", eventID)
			return protocol.Completion{}
		}
	}
}

// enqueue sends an eager command as its one-way MsgEnqueue* frame.
func (gs *graphSession) enqueue(t *testing.T, e protocol.Enqueue) {
	t.Helper()
	gs.oneway(t, e.MsgType(), func(w *protocol.Writer) { protocol.PutEnqueue(w, e) })
}

func (gs *graphSession) waitNotify(t *testing.T, typ protocol.MsgType) protocol.Envelope {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-gs.notify:
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
		protocol.PutHello(w, protocol.Hello{Client: "graph-test"})
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
// graph ID must fail the iteration's event in a deferred completion
// notice and leave the queue usable (Finish still answers) instead of
// wedging it.
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
	if st := cl.CommandStatus(gs.completion(t, 100).Status); st != cl.Complete {
		t.Fatalf("replay status = %v", st)
	}

	// Unknown graph ID: deferred failure naming the exec's queue and
	// event, not a wedged queue.
	gs.oneway(t, protocol.MsgExecGraph, func(w *protocol.Writer) {
		protocol.PutExecGraph(w, protocol.ExecGraph{GraphID: 999, QueueID: 20, EventID: 101})
	})
	f := gs.completion(t, 101)
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
	f = gs.completion(t, 102)
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

// TestReleasedGraphGivesBackItsPayloads: a cached write's payload block
// goes back to the pool when the graph lets go of it — on MsgReleaseGraph
// and when a Goodbye tears the session's graphs down — not to the
// garbage collector. The test holds each block itself across the
// release, so its own Drop must be the block's last.
func TestReleasedGraphGivesBackItsPayloads(t *testing.T) {
	gs, sess := commandSession(t)
	// The Goodbye ends the session's lease: it comes last.
	for i, end := range []protocol.MsgType{protocol.MsgReleaseGraph, protocol.MsgGoodbye} {
		graphID := uint64(i + 1)
		stream := gs.ep.OpenStream()
		if st := gs.tell(t, protocol.MsgRegisterGraph, func(w *protocol.Writer) {
			protocol.PutRegisterGraph(w, protocol.RegisterGraph{GraphID: graphID, QueueID: csQueue,
				Commands: []protocol.GraphCommand{{Op: protocol.GraphOpWrite, BufID: csBuf, Size: csSize, StreamID: stream.ID()}}})
		}); st != cl.Success {
			t.Fatalf("register graph %d: %v", graphID, st)
		}
		sendPayload(t, stream, make([]byte, csSize))
		sess.mu.Lock()
		p := sess.graphs[graphID].payloads[0]
		sess.mu.Unlock()
		if err := p.gate.Wait(); err != nil { // the staging's hold is gone
			t.Fatal(err)
		}
		p.block.Hold()
		if st := gs.tell(t, end, func(w *protocol.Writer) {
			if end == protocol.MsgReleaseGraph {
				w.U64(graphID)
			}
		}); st != cl.Success {
			t.Fatalf("%s: %v", end, st)
		}
		if !lastDrop(p.block) {
			t.Errorf("after %s the graph still holds its payload block", end)
		}
	}
}

// lastDrop drops a hold on p and reports whether it was the last one: a
// Drop past the last panics.
func lastDrop(p *gcf.SharedPayload) (last bool) {
	p.Drop()
	defer func() { last = recover() != nil }()
	p.Drop()
	return false
}
