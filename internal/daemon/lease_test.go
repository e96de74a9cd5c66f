package daemon

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// managedSession starts a raw session on a managed daemon with a CPU (unit
// 0) and a GPU (unit 1), and no lease.
func managedSession(t *testing.T) (*Daemon, *graphSession, *session) {
	t.Helper()
	d := testDaemon(t, true)
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(d, serverEP)
	sess.start()
	gs := startGraphSession(clientEP)
	t.Cleanup(func() { gs.ep.Close() })
	return d, gs, sess
}

// leaseFrames drives a session frame by frame. Every check is a request,
// or a one-way frame with a request behind it (graphSession.tell),
// answered after every frame sent before it: no timing.
type leaseFrames struct {
	t  *testing.T
	gs *graphSession
	id uint32
}

func (f *leaseFrames) ask(typ protocol.MsgType, fill func(*protocol.Writer)) cl.ErrorCode {
	f.t.Helper()
	f.id++
	return cl.ErrorCode(f.gs.call(f.t, f.id, typ, fill).Body.I32())
}

func (f *leaseFrames) tell(typ protocol.MsgType, fill func(*protocol.Writer)) cl.ErrorCode {
	f.t.Helper()
	return f.gs.tell(f.t, typ, fill)
}

func hello(authID string) func(*protocol.Writer) {
	return func(w *protocol.Writer) { protocol.PutHello(w, protocol.Hello{Client: "lease-test", AuthID: authID}) }
}

// createContext creates context ctxID on one device unit.
func (f *leaseFrames) createContext(ctxID, unit uint64) cl.ErrorCode {
	f.t.Helper()
	return f.tell(protocol.MsgCreateContext, func(w *protocol.Writer) { w.U64(ctxID); w.U64s([]uint64{unit}) })
}

// A managed daemon lets a session use the units of the lease it is bound
// to and no others. It used to hand every session every device and only
// filter the records Hello returned: a session that never said Hello, a
// lease holder reaching past its lease, and a holder whose lease was
// revoked all created contexts. And a late revoke of a session's previous
// lease does not touch the lease the session is bound to now.
func TestSessionUsesOnlyItsLease(t *testing.T) {
	d, gs, _ := managedSession(t)
	f := &leaseFrames{t: t, gs: gs}
	d.Allow("lease-a", []uint32{1})

	if st := f.createContext(1, 0); st != cl.InvalidDevice {
		t.Errorf("a session without a Hello created a context on unit 0: %v", st)
	}
	if st := f.createContext(2, 1); st != cl.InvalidDevice {
		t.Errorf("a session without a Hello created a context on a leased unit: %v", st)
	}
	if st := f.ask(protocol.MsgHello, hello("lease-a")); st != cl.Success {
		t.Fatalf("hello lease-a: %v", st)
	}
	if st := f.createContext(3, 0); st != cl.InvalidDevice {
		t.Errorf("a lease-a session created a context on unit 0, which it does not lease: %v", st)
	}
	if st := f.createContext(4, 1); st != cl.Success {
		t.Fatalf("a lease-a session could not use its unit: %v", st)
	}
	d.Revoke("lease-a")
	if st := f.createContext(5, 1); st != cl.InvalidDevice {
		t.Errorf("after the revoke of lease-a its session created a context: %v", st)
	}
	if st := f.tell(protocol.MsgCreateQueue, func(w *protocol.Writer) { w.U64(6); w.U64(4); w.U64(1) }); st == cl.Success {
		t.Error("after the revoke of lease-a its session created a queue on the lease's unit")
	}

	// The kept-link sequence: the lease ends, the next binds one-way, and
	// the first lease's revoke comes late.
	d.Allow("lease-b", []uint32{1})
	d.Allow("lease-c", []uint32{1})
	if st := f.ask(protocol.MsgHello, hello("lease-b")); st != cl.Success {
		t.Fatalf("hello lease-b: %v", st)
	}
	f.gs.oneway(t, protocol.MsgGoodbye, nil)
	f.gs.oneway(t, protocol.MsgHello, hello("lease-c"))
	d.Revoke("lease-b")
	if st := f.createContext(7, 1); st != cl.Success {
		t.Errorf("a late revoke of lease-b took unit 1 from the lease-c session: %v", st)
	}
	d.Revoke("lease-c")
	if st := f.createContext(8, 1); st != cl.InvalidDevice {
		t.Errorf("after the revoke of lease-c its session created a context: %v", st)
	}
}

// A refused one-way Hello — the lease is gone before its client binds to
// it — is reported like a refused create: a failure notice naming no queue
// or event under the Hello's type and code, and the session uses no unit.
func TestOneWayHelloRefusal(t *testing.T) {
	_, gs, _ := managedSession(t)
	f := &leaseFrames{t: t, gs: gs}
	gs.oneway(t, protocol.MsgHello, hello("lease-gone"))
	fail := gs.completion(t, 0)
	if fail.Op != protocol.MsgHello || cl.ErrorCode(fail.Status) != cl.InvalidServer || fail.QueueID != 0 || fail.EventID != 0 {
		t.Fatalf("refused one-way hello reported as %+v", fail)
	}
	if st := f.createContext(1, 1); st != cl.InvalidDevice {
		t.Errorf("a session whose hello was refused created a context: %v", st)
	}
}

// A Goodbye ends the session's lease and leaves the connection up for the
// next one: the session holds no object afterwards, its native queue's
// goroutine is gone, the lease is reported to the manager if the client
// did not release it, and a one-way Hello binds the same session to the
// next lease. A close after the goodbye finds nothing left to release.
func TestGoodbyeEndsLeaseInPlace(t *testing.T) {
	d, gs, sess := managedSession(t)
	f := &leaseFrames{t: t, gs: gs}
	d.Allow("lease-a", []uint32{1})
	ok := func(what string, st cl.ErrorCode) {
		t.Helper()
		if st != cl.Success {
			t.Fatalf("%s: %v", what, st)
		}
	}
	ok("hello", f.ask(protocol.MsgHello, hello("lease-a")))
	// The first lane starts the daemon's serve dispatcher, which stays.
	ok("serve lane", f.ask(protocol.MsgServeOpen, func(w *protocol.Writer) {
		protocol.PutServeOpen(w, protocol.ServeOpen{ServeID: 7, Weight: 1, MaxPending: 8, UnitID: 1})
	}))
	base := runtime.NumGoroutine()
	ok("context", f.createContext(1, 1))
	ok("queue", f.tell(protocol.MsgCreateQueue, func(w *protocol.Writer) { w.U64(2); w.U64(1); w.U64(1) }))
	ok("buffer", f.tell(protocol.MsgCreateBuffer, func(w *protocol.Writer) {
		w.U64(3)
		w.U64(1)
		w.U32(uint32(cl.MemReadWrite))
		w.I64(csSize)
		w.U32(0)
	}))
	ok("program", f.tell(protocol.MsgCreateProgram, func(w *protocol.Writer) { w.U64(4); w.U64(1); w.String(fillSource) }))
	ok("build", f.tell(protocol.MsgBuildProgram, func(w *protocol.Writer) { w.U64(4); w.String("") }))
	ok("kernel", f.tell(protocol.MsgCreateKernel, func(w *protocol.Writer) { w.U64(5); w.U64(4); w.String("fill") }))
	ok("user event", f.ask(protocol.MsgCreateUserEvent, func(w *protocol.Writer) { w.U64(6); w.U64(1) }))
	gs.oneway(t, protocol.MsgRegisterGraph, func(w *protocol.Writer) {
		protocol.PutRegisterGraph(w, protocol.RegisterGraph{GraphID: 8, QueueID: 2, Commands: []protocol.GraphCommand{{Op: protocol.GraphOpMarker}}})
	})
	// A command parked on the user event: only the goodbye can settle it.
	gs.enqueue(t, protocol.Enqueue{QueueID: 2, EventID: 9, WaitIDs: []uint64{6}, Cmd: protocol.GraphCommand{Op: protocol.GraphOpMarker}})
	ok("server info", f.ask(protocol.MsgGetServerInfo, nil))
	if n := d.SessionObjects(); n != 9 {
		t.Fatalf("the session holds %d objects before the goodbye, want 9", n)
	}

	gs.oneway(t, protocol.MsgGoodbye, nil)
	ok("server info after the goodbye", f.ask(protocol.MsgGetServerInfo, nil))
	if n := d.SessionObjects(); n != 0 {
		t.Errorf("the session holds %d objects after the goodbye, want 0", n)
	}
	if d.CachedGraphs() != 0 {
		t.Errorf("%d graphs cached after the goodbye", d.CachedGraphs())
	}
	if d.HasLease("lease-a") {
		t.Error("a lease its client did not release survived the goodbye")
	}
	sess.mu.Lock()
	auth := sess.authID
	sess.mu.Unlock()
	if auth != "" {
		t.Errorf("the session is still bound to %q after the goodbye", auth)
	}
	if st := f.createContext(10, 1); st != cl.InvalidDevice {
		t.Errorf("a session whose lease ended created a context: %v", st)
	}
	waitGoroutines(t, base)

	d.Allow("lease-b", []uint32{1})
	gs.oneway(t, protocol.MsgHello, hello("lease-b"))
	ok("context under the next lease", f.createContext(11, 1))
	gs.oneway(t, protocol.MsgGoodbye, nil)
	ok("server info after the second goodbye", f.ask(protocol.MsgGetServerInfo, nil))
	gs.ep.Close()
	waitGoroutines(t, base)
	if d.SessionObjects() != 0 || d.RetainedSessions() != 0 {
		t.Errorf("after the close: %d objects, %d sessions retained", d.SessionObjects(), d.RetainedSessions())
	}
}
