package daemon

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

// sayHello sends a request-class Hello and returns its status and answer.
func sayHello(t *testing.T, gs *graphSession, h protocol.Hello) (cl.ErrorCode, protocol.HelloAnswer) {
	t.Helper()
	env := gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) { protocol.PutHello(w, h) })
	if st := cl.ErrorCode(env.Body.I32()); st != cl.Success {
		return st, protocol.HelloAnswer{}
	}
	a := protocol.GetHelloAnswer(env.Body)
	if err := env.Body.Err(); err != nil {
		t.Fatalf("hello answer: %v", err)
	}
	return cl.Success, a
}

// waitParked waits until the daemon parks n sessions.
func waitParked(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.RetainedSessions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions parked, want %d", d.RetainedSessions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A resume under another lease is refused and leaves the parked session
// alone: its retention window runs out when it would have without the
// resumes. It used to be taken and parked again, with a full window, by
// every refused resume, so a stranger resuming every W/4 kept another
// lease's objects parked for as long as it kept trying.
func TestRefusedResumeDoesNotExtendTheWindow(t *testing.T) {
	const retain = 200 * time.Millisecond
	plat := native.NewPlatform("p", "v", []device.Config{device.TestCPU("cpu0"), device.TestGPU("gpu0")})
	d, err := New(Config{Name: "srv", Platform: plat, Managed: true, SessionRetain: retain})
	if err != nil {
		t.Fatal(err)
	}
	d.Allow("lease-a", []uint32{0})
	d.Allow("lease-b", []uint32{1})

	a := newGraphSession(t, d)
	st, answer := sayHello(t, a, protocol.Hello{Client: "a", AuthID: "lease-a"})
	if st != cl.Success {
		t.Fatalf("hello lease-a: %v", st)
	}
	if st := a.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) { w.U64(1); w.U64s([]uint64{0}) }); st != cl.Success {
		t.Fatalf("create context: %v", st)
	}
	a.ep.Close()
	waitParked(t, d, 1)

	// b binds lease-b first, so the lease is not given back unbound and
	// every resume reaches the parked session.
	b := newGraphSession(t, d)
	defer b.ep.Close()
	if st, _ := sayHello(t, b, protocol.Hello{Client: "b", AuthID: "lease-b"}); st != cl.Success {
		t.Fatalf("hello lease-b: %v", st)
	}
	refused := 0
	for i := 0; i < 16; i++ {
		st, got := sayHello(t, b, protocol.Hello{Client: "b", AuthID: "lease-b", Resume: answer.SessionID})
		switch {
		case st == cl.InvalidServer:
			refused++
		case st == cl.Success && !got.Retained:
			// The window ran out: the ID names nothing, a new session.
		default:
			t.Fatalf("resume %d under lease-b: %v (retained=%v), want refused", i, st, got.Retained)
		}
		if i == 0 && refused == 0 {
			t.Fatal("a resume under lease-b sent right after the park was not refused")
		}
		time.Sleep(retain / 4)
	}
	if n := d.RetainedSessions(); n != 0 {
		t.Fatalf("%d sessions parked after %d refused resumes over 4 windows, want 0", n, refused)
	}
	if n := d.SessionObjects(); n != 0 {
		t.Fatalf("the expired session left %d objects", n)
	}
}

// A Hello that resumes a session, sent on a session that holds objects,
// is refused and changes nothing: neither session loses or gains an
// object. It used to replace the live session's tables with the parked
// one's, and what they held leaked: its native queue was never released
// and the cached graph count never came back down.
func TestResumeOnBusySessionLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	d := testDaemon(t, false)
	d.cfg.SessionRetain = time.Minute

	a := newGraphSession(t, d)
	a.setupGraphQueue(t, 20, 30)
	_, answer := sayHello(t, a, protocol.Hello{Client: "a"})
	a.ep.Close()
	waitParked(t, d, 1)

	b := newGraphSession(t, d)
	b.setupGraphQueue(t, 21, 31)
	if st := cl.ErrorCode(b.call(t, 1, protocol.MsgGetServerInfo, nil).Body.I32()); st != cl.Success {
		t.Fatalf("server info: %v", st)
	}
	objects, graphs := d.SessionObjects(), d.CachedGraphs()
	if st, _ := sayHello(t, b, protocol.Hello{Client: "b", Resume: answer.SessionID}); st == cl.Success {
		t.Fatal("a session holding objects resumed another")
	}
	if n, g := d.SessionObjects(), d.CachedGraphs(); n != objects || g != graphs {
		t.Fatalf("after the refused resume: %d objects, %d graphs; want %d and %d", n, g, objects, graphs)
	}

	// The parked session is still there for its owner.
	c := newGraphSession(t, d)
	if st, got := sayHello(t, c, protocol.Hello{Client: "c", Resume: answer.SessionID}); st != cl.Success || !got.Retained {
		t.Fatalf("resume of the parked session: %v (retained=%v)", st, got.Retained)
	}
	for _, gs := range []*graphSession{b, c} {
		gs.oneway(t, protocol.MsgGoodbye, nil)
		if st := cl.ErrorCode(gs.call(t, 1, protocol.MsgGetServerInfo, nil).Body.I32()); st != cl.Success {
			t.Fatalf("server info behind the goodbye: %v", st)
		}
		gs.ep.Close()
	}
	if n, g := d.SessionObjects(), d.CachedGraphs(); n != 0 || g != 0 {
		t.Fatalf("after every lease ended: %d objects, %d graphs", n, g)
	}
	waitGoroutines(t, base)
}

// A Hello that resumes the session it arrives on is refused at once: the
// session is attached, and always will be while it waits, so the bounded
// grace for a close notice still on its way (2 s) has nothing to wait for.
func TestSelfResumeAnswersAtOnce(t *testing.T) {
	d := testDaemon(t, false)
	d.cfg.SessionRetain = time.Minute
	gs := newGraphSession(t, d)
	defer gs.ep.Close()
	_, answer := sayHello(t, gs, protocol.Hello{Client: "self"})
	start := time.Now()
	st, _ := sayHello(t, gs, protocol.Hello{Client: "self", Resume: answer.SessionID})
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("self-resume answered after %v, want at once", took)
	}
	if st == cl.Success {
		t.Fatal("a session resumed itself")
	}
}
