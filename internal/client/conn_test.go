package client

import (
	"net"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// A call that finds the link dead reports cl.ServerLost even when the
// connection's close notice has not reached the Server yet, and the
// caller sees a disconnected server the moment it sees the error. The
// client's dispatcher is held inside a serve-result handler, queued ahead
// of the close: the in-process link is then provably dead for sends while
// the client's end provably has not been told, since its close notice
// runs after the last handler. (Classifying by "has the close notice run"
// answered InvalidServer here — the TestFinishBoundedAfterKill flake.)
func TestCallOnDeadLinkBeforeCloseNoticeIsServerLost(t *testing.T) {
	clientEP, daemonEP := gcf.NewLocalPair()
	daemonEP.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil || env.Type != protocol.MsgHello {
			return
		}
		w := protocol.NewWriter()
		w.I32(int32(cl.Success))
		protocol.PutHelloAnswer(w, protocol.HelloAnswer{Name: "fake", SessionID: 1, PeerKey: 2})
		if err := daemonEP.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w)); err != nil {
			t.Error(err)
		}
	}, nil)

	srv, err := dialServer(NewPlatform(Options{}), "fake", clientEP, "")
	if err != nil {
		t.Fatal(err)
	}
	// A result for a serve session whose lock the test holds blocks the
	// client's dispatcher in handleResults. A local send lands in the
	// peer's queue before it returns, so the close comes behind it.
	ss := &ServeSession{srv: srv, id: 7}
	srv.registerServe(ss)
	ss.mu.Lock()
	w := protocol.NewWriter()
	protocol.PutServeResults(w, protocol.ServeResults{ServeID: 7, Results: []protocol.ServeResult{{JobID: 1}}})
	if err := daemonEP.Send(protocol.EncodeEnvelope(protocol.ClassNotification, 0, protocol.MsgServeResult, w)); err != nil {
		t.Fatal(err)
	}
	daemonEP.Close()

	_, err = srv.call(protocol.MsgFinish, func(w *protocol.Writer) { w.U64(1) })
	if cl.CodeOf(err) != cl.ServerLost {
		t.Errorf("call on the dead link = %v, want CL_SERVER_LOST_WWU", err)
	}
	if err := srv.send(protocol.MsgFlush, nil); cl.CodeOf(err) != cl.ServerLost {
		t.Errorf("one-way on the dead link = %v, want CL_SERVER_LOST_WWU", err)
	}
	if srv.Connected() {
		t.Error("server still reports connected after a call reported it lost")
	}
	select {
	case <-srv.Down():
		t.Error("the close notice had already run: the window was not exercised")
	default:
	}
	ss.mu.Unlock()
	waitServerDown(t, srv)
}

// The client returns a lease with a one-way DMReleaseLease: the manager
// never answers a release, so the frame must not ask it to.
func TestLeaseReleaseTravelsOneWay(t *testing.T) {
	frames := make(chan protocol.Envelope, 4)
	dial := func(string) (net.Conn, error) {
		a, b := simnet.Pipe(simnet.Unlimited())
		mgr := gcf.NewEndpoint(b, false)
		mgr.Start(func(msg []byte) {
			env, err := protocol.ParseEnvelope(msg)
			if err != nil {
				t.Errorf("client sent a malformed frame: %v", err)
				return
			}
			w := protocol.NewWriter()
			w.I32(int32(cl.Success))
			switch env.Type {
			case protocol.MsgDMShardMap:
				protocol.ShardMap{Epoch: 1}.Put(w)
			case protocol.MsgDMRequestDevices:
				w.String("lease-a")
				w.Strings(nil) // a grant naming no server: nothing to connect to
				protocol.ShardMap{Epoch: 1}.Put(w)
			default:
				frames <- env
				return
			}
			if err := mgr.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w)); err != nil {
				t.Error(err)
			}
		}, nil)
		t.Cleanup(func() { mgr.Close() })
		return a, nil
	}
	plat := NewPlatform(Options{Dialer: dial})
	lease, err := plat.RequestFromManager(ManagerConfig{
		Manager:  "mgr",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-frames:
		if env.Type != protocol.MsgDMReleaseLease || env.Class != protocol.ClassOneWay || env.Body.String() != "lease-a" {
			t.Fatalf("release frame: type=%s class=%d, want a one-way DMReleaseLease for lease-a", env.Type, env.Class)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the release never reached the manager")
	}
}
