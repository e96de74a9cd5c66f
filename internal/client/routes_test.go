package client

import (
	"fmt"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/rpc/rpctest"
)

func serverLinkSamples() []rpctest.Sample {
	note := protocol.ClassNotification
	return []rpctest.Sample{
		// A failure, the longer body: every truncation of it is refused,
		// the 12-byte one with a failed status too.
		{Type: protocol.MsgCompleted, Class: note, Fill: func(w *protocol.Writer) {
			protocol.PutCompletion(w, protocol.Completion{EventID: 0, Status: int32(cl.InvalidValue), QueueID: 1, Op: protocol.MsgFlush, Msg: "no"})
		}},
		{Type: protocol.MsgServeResult, Class: note, Fill: func(w *protocol.Writer) {
			protocol.PutServeResults(w, protocol.ServeResults{ServeID: 1, Results: []protocol.ServeResult{{JobID: 1, Output: []byte{1, 2}}}})
		}},
	}
}

func TestServerLinkRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, (&Server{}).routes(), serverLinkSamples())
}

// The client's end of a daemon link, with a completion hook waiting on
// event 0 — the event a truncated completion names: no refused frame
// fires a hook or records a failure, a request the daemon has no
// business sending is answered, and a well-formed completion still fires
// its hook afterwards.
func TestServerLinkRefusesWhatItDoesNotServe(t *testing.T) {
	near, far := gcf.NewLocalPair()
	l := rpctest.StartLink(far)
	defer l.EP.Close()
	go func() {
		hello := <-l.Rest
		w := protocol.NewWriter()
		w.I32(int32(cl.Success))
		protocol.PutHelloAnswer(w, protocol.HelloAnswer{Name: "fake", SessionID: 1, PeerKey: 2})
		if err := l.EP.Send(protocol.EncodeEnvelope(protocol.ClassResponse, hello.ID, hello.Type, w)); err != nil {
			t.Error(err)
		}
	}()
	srv, err := dialServer(NewPlatform(Options{}), "fake", near, "")
	if err != nil {
		t.Fatal(err)
	}
	l.Conn = srv.conn
	fired := make(chan cl.CommandStatus, 1)
	srv.registerHook(0, nil, func(st cl.CommandStatus) { fired <- st })
	l.State = func() string {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return fmt.Sprintf("hooks=%d queueErrs=%d", len(srv.hooks), len(srv.queueErrs))
	}
	l.Alive = func(t *testing.T) {
		t.Helper()
		done := protocol.NewWriter()
		protocol.PutCompletion(done, protocol.Completion{EventID: 0, Status: int32(cl.Complete)})
		l.Send(t, protocol.ClassNotification, 0, protocol.MsgCompleted, done.Bytes())
		select {
		case st := <-fired:
			if st != cl.Complete {
				t.Fatalf("hook fired with %v", st)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a well-formed completion after the sweep fired no hook")
		}
	}
	rpctest.Sweep(t, l, srv.routes(), serverLinkSamples())
	select {
	case st := <-fired:
		t.Fatalf("the hook fired again, with %v", st)
	default:
	}
}

func managerLinkSamples() []rpctest.Sample {
	return []rpctest.Sample{{Type: protocol.MsgDMPing, Class: protocol.ClassOneWay,
		Fill: protocol.ShardMap{Epoch: 7, Shards: []string{"a", "b"}}.Put}}
}

func TestManagerLinkRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, NewPlatform(Options{}).managerRoutes(), managerLinkSamples())
}

// The client's end of a manager link: a truncated epoch push does not
// touch the cached shard map, a well-formed one after it does.
func TestManagerLinkRefusesWhatItDoesNotServe(t *testing.T) {
	p := NewPlatform(Options{})
	near, far := gcf.NewLocalPair()
	l := rpctest.StartLink(far)
	defer l.EP.Close()
	l.Conn = rpc.New(near)
	l.Conn.Start(p.managerRoutes(), nil)
	l.State = func() string {
		epoch, shards := p.ShardView()
		return fmt.Sprintf("epoch=%d shards=%v", epoch, shards)
	}
	l.Alive = func(t *testing.T) {
		t.Helper()
		l.Send(t, protocol.ClassOneWay, 0, protocol.MsgDMPing, managerLinkSamples()[0].Body())
		// A request is refused, and only after the push has been served.
		if st := l.Ask(t, 1, protocol.MsgDMPing, nil); st != cl.InvalidOperation {
			t.Fatalf("request on the client's manager link answered %v", st)
		}
		if got := l.State(); got != "epoch=7 shards=[a b]" {
			t.Fatalf("shard view after a well-formed push: %s", got)
		}
	}
	rpctest.Sweep(t, l, p.managerRoutes(), managerLinkSamples())
}
