package daemon

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

func testDaemon(t *testing.T, managed bool) *Daemon {
	t.Helper()
	plat := native.NewPlatform("p", "v", []device.Config{
		device.TestCPU("cpu0"), device.TestGPU("gpu0"),
	})
	d, err := New(Config{Name: "srv", Platform: plat, Managed: managed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("daemon without platform accepted")
	}
	d := testDaemon(t, false)
	if d.Name() != "srv" || len(d.Devices()) != 2 {
		t.Fatalf("daemon = %q with %d devices", d.Name(), len(d.Devices()))
	}
	recs := d.Records()
	if len(recs) != 2 || recs[0].UnitID != 0 || recs[1].UnitID != 1 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestLeaseFiltering(t *testing.T) {
	d := testDaemon(t, true)
	// Unknown auth ID is rejected outright.
	if _, err := d.visibleRecords("bogus"); cl.CodeOf(err) != cl.InvalidServer {
		t.Fatalf("unknown auth: %v", err)
	}
	// Lease on unit 1 exposes only that device.
	d.Allow("lease-a", []uint32{1})
	recs, err := d.visibleRecords("lease-a")
	if err != nil || len(recs) != 1 || recs[0].UnitID != 1 {
		t.Fatalf("filtered records = %+v, %v", recs, err)
	}
	if !d.HasLease("lease-a") {
		t.Fatal("lease not tracked")
	}
	d.Revoke("lease-a")
	if d.HasLease("lease-a") {
		t.Fatal("revoked lease still tracked")
	}
	if _, err := d.visibleRecords("lease-a"); err == nil {
		t.Fatal("revoked auth still accepted")
	}
}

func TestUnmanagedExposesEverything(t *testing.T) {
	d := testDaemon(t, false)
	recs, err := d.visibleRecords("anything")
	if err != nil || len(recs) != 2 {
		t.Fatalf("unmanaged visibility: %+v, %v", recs, err)
	}
}

func TestProtocolObjectErrors(t *testing.T) {
	d := testDaemon(t, false)
	rs := newGraphSession(t, d)
	defer rs.ep.Close()

	// Operations against unknown object IDs return the right codes.
	if rs.tell(t, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(100) // queue ID
		w.U64(999) // unknown context
		w.U64(0)
	}) != cl.InvalidContext {
		t.Fatal("unknown context not rejected")
	}
	if rs.tell(t, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(999)
		w.String("")
	}) != cl.InvalidProgram {
		t.Fatal("unknown program not rejected")
	}
	env := rs.call(t, 3, protocol.MsgFinish, func(w *protocol.Writer) {
		w.U64(999)
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidCommandQueue {
		t.Fatal("unknown queue not rejected")
	}
	// Unknown message types answer InvalidOperation rather than hanging.
	env = rs.call(t, 4, protocol.MsgType(999), nil)
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidOperation {
		t.Fatal("unknown message type not rejected")
	}
	// A context created on a bad device unit fails cleanly.
	if rs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(50)
		w.U64s([]uint64{7})
	}) != cl.InvalidDevice {
		t.Fatal("bad device unit not rejected")
	}
}

func TestProtocolHappyPath(t *testing.T) {
	d := testDaemon(t, false)
	rs := newGraphSession(t, d)
	defer rs.ep.Close()

	env := rs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "raw-client"})
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("hello failed")
	}
	a := protocol.GetHelloAnswer(env.Body)
	if a.Name != "srv" {
		t.Fatalf("server name = %q", a.Name)
	}
	if len(a.Devices) != 2 {
		t.Fatalf("hello records = %+v", a.Devices)
	}

	if rs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(10)
		w.U64s([]uint64{0})
	}) != cl.Success {
		t.Fatal("create context failed")
	}
	env = rs.call(t, 3, protocol.MsgGetServerInfo, nil)
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("server info failed")
	}
	if env.Body.String() != "srv" || env.Body.Bool() || env.Body.U32() != 2 {
		t.Fatal("server info content wrong")
	}
	// Releases are idempotent even for unknown IDs.
	for _, id := range []uint64{10, 10} {
		if rs.tell(t, protocol.MsgReleaseContext, func(w *protocol.Writer) { w.U64(id) }) != cl.Success {
			t.Fatal("release failed")
		}
	}
}

// lateNoticeConn holds back the end of its read side until notice is
// closed: the link is gone, but this side's close notice has not run.
type lateNoticeConn struct {
	net.Conn
	notice chan struct{}
}

func (c *lateNoticeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		<-c.notice
	}
	return n, err
}

// TestAttachBeforeCloseNoticeAdoptsSession: a re-attach can outrace the
// old connection's close notice. The resuming Hello, dispatched first,
// waits for the session to detach and then adopts it.
func TestAttachBeforeCloseNoticeAdoptsSession(t *testing.T) {
	plat := native.NewPlatform("p", "v", []device.Config{device.TestCPU("cpu0")})
	d, err := New(Config{Name: "srv", Platform: plat, SessionRetain: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a, b := simnet.Pipe(simnet.Unlimited())
	late := &lateNoticeConn{Conn: b, notice: make(chan struct{})}
	d.ServeConn(late)
	old := startGraphSession(gcf.NewEndpoint(a, true))
	env := old.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "old"})
	})
	if st := cl.ErrorCode(env.Body.I32()); st != cl.Success {
		t.Fatalf("hello: %v", st)
	}
	sid := protocol.GetHelloAnswer(env.Body).SessionID
	old.ep.Close()

	fresh := newGraphSession(t, d)
	defer fresh.ep.Close()
	w := protocol.NewWriter()
	protocol.PutHello(w, protocol.Hello{Client: "fresh", Resume: sid})
	if err := fresh.ep.Send(protocol.EncodeEnvelope(protocol.ClassRequest, 2, protocol.MsgHello, w)); err != nil {
		t.Fatal(err)
	}
	// The attach is waiting for the old session to detach before the old
	// connection's close notice is let through.
	deadline := time.Now().Add(5 * time.Second)
	stacks := make([]byte, 1<<20)
	for !bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte("takeDetachedSession")) {
		if time.Now().After(deadline) {
			t.Fatal("the attach never waited for the old session")
		}
		runtime.Gosched()
	}
	close(late.notice)
	select {
	case env = <-fresh.resp:
	case <-time.After(5 * time.Second):
		t.Fatal("no answer to the attach")
	}
	if st := cl.ErrorCode(env.Body.I32()); st != cl.Success {
		t.Fatalf("attach: %v", st)
	}
	if !protocol.GetHelloAnswer(env.Body).Retained {
		t.Fatal("attach before the close notice: retained=false, want the session adopted")
	}
}
