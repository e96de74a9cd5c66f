package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// pair returns the two ends of an in-process connection, not yet started.
func pair(t *testing.T) (client, server *Conn) {
	t.Helper()
	a, b := gcf.NewLocalPair()
	client, server = New(a), New(b)
	t.Cleanup(client.Close)
	return client, server
}

// echo answers a request with the uint32 it carried.
func echo(c Call) {
	v := c.Body.U32()
	c.Reply(cl.Success, func(w *protocol.Writer) { w.U32(v) })
}

// onFinish is the table of a role that serves MsgFinish requests and
// nothing else.
func onFinish(h func(Call)) Routes {
	return Routes{protocol.MsgFinish: {Request: h}}
}

func callEcho(c *Conn, v uint32) (uint32, error) {
	resp, err := c.Call(protocol.MsgFinish, 0, func(w *protocol.Writer) { w.U32(v) })
	if err != nil {
		return 0, err
	}
	return resp.U32(), resp.Err()
}

func pendingCalls(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Every one of many concurrent calls gets the response to its own
// request, with the server answering off its dispatch goroutine so that
// responses come back in another order than the requests went out.
func TestConcurrentCallsGetTheirOwnResponses(t *testing.T) {
	client, server := pair(t)
	var replies sync.WaitGroup
	server.Start(onFinish(func(c Call) {
		replies.Add(1)
		go func() { defer replies.Done(); echo(c) }()
	}), nil)
	client.Start(nil, nil)

	const callers, each = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				want := uint32(g*each + i)
				if got, err := callEcho(client, want); err != nil || got != want {
					t.Errorf("call %d: got %d, %v", want, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	replies.Wait()
	if n := pendingCalls(client); n != 0 {
		t.Fatalf("%d pending entries left after every call returned", n)
	}
}

// A refusal comes back as a *cl.Error with the responder's status and
// the body it wrote after it.
func TestCallReturnsRefusalWithBody(t *testing.T) {
	client, server := pair(t)
	server.Start(onFinish(func(c Call) {
		c.Reply(cl.Busy, func(w *protocol.Writer) { w.String("queue full") })
	}), nil)
	client.Start(nil, nil)
	resp, err := client.Call(protocol.MsgFinish, 0, nil)
	if !errors.Is(err, cl.Busy) || errors.Is(err, ErrLost) {
		t.Fatalf("refused call: err = %v", err)
	}
	if resp == nil || resp.String() != "queue full" {
		t.Fatal("refusal body was not handed to the caller")
	}
}

// Closing the connection fails every waiting call, and every later one,
// with ErrLost, and the close notice runs once.
func TestCloseFailsPendingAndLaterCalls(t *testing.T) {
	client, server := pair(t)
	const waiting = 8
	arrived := make(chan struct{}, waiting)
	server.Start(onFinish(func(Call) { arrived <- struct{}{} }), nil) // never answers
	var notices atomic.Int32
	client.Start(nil, func(error) { notices.Add(1) })

	errs := make(chan error, waiting)
	for i := 0; i < waiting; i++ {
		go func() {
			_, err := client.Call(protocol.MsgFinish, 0, nil)
			errs <- err
		}()
	}
	for i := 0; i < waiting; i++ {
		<-arrived
	}
	server.Close()
	for i := 0; i < waiting; i++ {
		if err := <-errs; !errors.Is(err, ErrLost) {
			t.Fatalf("pending call ended with %v, want ErrLost", err)
		}
	}
	<-client.Endpoint().Done()
	if _, err := client.Call(protocol.MsgFinish, 0, nil); !errors.Is(err, ErrLost) {
		t.Fatalf("call after close: %v, want ErrLost", err)
	}
	for _, err := range []error{
		client.OneWay(protocol.MsgFlush, nil),
		server.Notify(protocol.MsgCompleted, nil),
	} {
		if !errors.Is(err, ErrLost) {
			t.Fatalf("send after close: %v, want ErrLost", err)
		}
	}
	if n := notices.Load(); n != 1 {
		t.Fatalf("close notice ran %d times", n)
	}
}

// A call that timed out leaves nothing behind: no pending entry, and its
// late response is dropped instead of reaching a later call.
func TestTimedOutCallLeavesNoPendingEntry(t *testing.T) {
	client, server := pair(t)
	held := make(chan Call, 1)
	first := true // dispatch goroutine only
	server.Start(onFinish(func(c Call) {
		if first {
			first = false
			held <- c
			return
		}
		echo(c)
	}), nil)
	client.Start(nil, nil)

	_, err := client.Call(protocol.MsgFinish, 5*time.Millisecond, func(w *protocol.Writer) { w.U32(1) })
	if err == nil || errors.Is(err, ErrLost) {
		t.Fatalf("held call: err = %v, want a timeout on a live connection", err)
	}
	if n := pendingCalls(client); n != 0 {
		t.Fatalf("timed-out call left %d pending entries", n)
	}
	echo(<-held) // the late response, ahead of the next call's
	if got, err := callEcho(client, 2); err != nil || got != 2 {
		t.Fatalf("call after the late response: got %d, %v", got, err)
	}
}

// Responses nobody waits for — an ID never issued, a second answer to a
// call already served — are dropped without disturbing other calls.
func TestUnknownAndRepeatedResponsesDropped(t *testing.T) {
	client, server := pair(t)
	server.Start(onFinish(func(c Call) {
		stray := c
		stray.ID += 1000
		stray.Reply(cl.Success, func(w *protocol.Writer) { w.U32(0xdead) })
		echo(c)
		c.Reply(cl.InvalidValue, nil)
	}), nil)
	client.Start(nil, nil)
	for v := uint32(1); v <= 3; v++ {
		if got, err := callEcho(client, v); err != nil || got != v {
			t.Fatalf("call %d: got %d, %v", v, got, err)
		}
	}
	if n := pendingCalls(client); n != 0 {
		t.Fatalf("%d pending entries left", n)
	}
}

// A send that finds the endpoint closed is ErrLost even though this
// side's close notice has not run yet: the caller does not have to race
// the notice to classify the failure. A handler on this side is held in
// progress, and the notice runs after the last handler, so the link is
// provably dead while this side provably has not been told.
func TestSendOnClosedEndpointBeforeCloseNoticeIsLost(t *testing.T) {
	a, b := gcf.NewLocalPair()
	client := New(a)
	told := make(chan struct{})
	entered, release := make(chan struct{}), make(chan struct{})
	hold := func(Call) { close(entered); <-release }
	client.Start(Routes{protocol.MsgFlush: {OneWay: hold}}, func(error) { close(told) })
	b.Start(func([]byte) {}, nil)
	if err := OneWay(b, protocol.MsgFlush, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	b.Close()

	_, err := client.Call(protocol.MsgFinish, 0, nil)
	if !errors.Is(err, ErrLost) {
		t.Errorf("call on the dead link: %v, want ErrLost", err)
	}
	if err := client.OneWay(protocol.MsgFlush, nil); !errors.Is(err, ErrLost) {
		t.Errorf("one-way on the dead link: %v, want ErrLost", err)
	}
	select {
	case <-told:
		t.Error("the close notice had already run: the window was not exercised")
	default:
	}
	if n := pendingCalls(client); n != 0 {
		t.Errorf("failed send left %d pending entries", n)
	}
	close(release)
	<-told
}

// A message over the transport's frame limit is refused as such, not
// mistaken for a dead connection.
func TestOversizedMessageIsNotLost(t *testing.T) {
	client, server := pair(t)
	server.Start(nil, nil)
	client.Start(nil, nil)
	err := client.OneWay(protocol.MsgCreateProgram, func(w *protocol.Writer) { w.Blob(make([]byte, 300<<10)) })
	if !errors.Is(err, gcf.ErrTooLarge) || errors.Is(err, ErrLost) {
		t.Fatalf("oversized one-way: %v", err)
	}
}

// The receive half: a frame goes to the handler its row names for its
// class; one handler serves a type in two classes, its Reply reaching only
// the request; and a frame no row serves gets the one treatment — a
// request is answered InvalidOperation, anything else is counted.
func TestDispatchFollowsTheTable(t *testing.T) {
	client, server := pair(t)
	var seen atomic.Int32
	both := func(c Call) {
		seen.Add(1)
		if c.Body.U32(); c.Malformed() {
			return
		}
		c.Reply(cl.Success, nil)
	}
	server.Start(Routes{protocol.MsgFlush: {Request: both, OneWay: both}}, nil)
	client.Start(nil, nil)
	word := func(w *protocol.Writer) { w.U32(7) }

	if err := client.OneWay(protocol.MsgFlush, word); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(protocol.MsgFlush, 0, word); err != nil {
		t.Fatalf("served request: %v", err)
	}
	if n := seen.Load(); n != 2 {
		t.Fatalf("handler ran %d times for a one-way and a request", n)
	}
	// A body the handler cannot decode: the request hears InvalidValue, the
	// one-way is counted.
	if _, err := client.Call(protocol.MsgFlush, 0, nil); !errors.Is(err, cl.InvalidValue) {
		t.Fatalf("malformed request: %v", err)
	}
	// Not in the table in that class, or not at all.
	for _, send := range []func() error{
		func() error { return client.OneWay(protocol.MsgFlush, nil) },
		func() error { return client.Notify(protocol.MsgFlush, word) },
		func() error { return client.OneWay(protocol.MsgServeSubmit, nil) },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are handled in order: this answer comes after all of the above.
	if _, err := client.Call(protocol.MsgFinish, 0, nil); !errors.Is(err, cl.InvalidOperation) {
		t.Fatalf("unserved request: %v", err)
	}
	got := server.Unserved()
	if len(got) != 2 || got[protocol.MsgFlush] != 2 || got[protocol.MsgServeSubmit] != 1 {
		t.Fatalf("dropped frames by type: %v", got)
	}
	if n := len(client.Unserved()); n != 0 {
		t.Fatalf("the responses counted as dropped on the caller's side: %v", client.Unserved())
	}
}
