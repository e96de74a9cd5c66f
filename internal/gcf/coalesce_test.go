package gcf

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dopencl/internal/simnet"
)

// gatedConn blocks its first Write until gate is closed, counting all
// Write calls. It simulates a connection with one slow write in flight so
// tests can observe how many frames coalesce into the following batch.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}

	mu     sync.Mutex
	writes int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	c.mu.Unlock()
	if n == 1 {
		<-c.gate
	}
	return c.Conn.Write(p)
}

func (c *gatedConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// TestWriteCoalescing pipelines many small frames while the first
// connection write is stalled: the backlog must go out in a handful of
// batched writes, not one write per frame, with order preserved.
func TestWriteCoalescing(t *testing.T) {
	a, b := simnet.Pipe(simnet.Unlimited())
	gate := make(chan struct{})
	gc := &gatedConn{Conn: a, gate: gate}
	ea := NewEndpoint(gc, true)
	eb := NewEndpoint(b, false)
	defer ea.Close()
	defer eb.Close()

	const n = 200
	got := make(chan []byte, n)
	eb.Start(func(msg []byte) { got <- msg }, nil)
	ea.Start(func([]byte) {}, nil)

	for i := 0; i < n; i++ {
		if err := ea.Send([]byte(fmt.Sprintf("frame-%04d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(gate)

	for i := 0; i < n; i++ {
		select {
		case msg := <-got:
			want := fmt.Sprintf("frame-%04d", i)
			if string(msg) != want {
				t.Fatalf("message %d = %q, want %q (order broken)", i, msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at message %d", i)
		}
	}
	// Frame 1 went out alone (the gated write); the rest accumulated
	// behind it and must have flushed in a few large batches.
	if w := gc.writeCount(); w > 10 {
		t.Fatalf("%d frames took %d conn writes; expected coalescing into batches", n, w)
	}
}

// TestCloseFlushesBufferedFrames: an orderly Close must not drop frames
// still sitting in the coalescing buffer.
func TestCloseFlushesBufferedFrames(t *testing.T) {
	a, b := simnet.Pipe(simnet.Unlimited())
	gate := make(chan struct{})
	gc := &gatedConn{Conn: a, gate: gate}
	ea := NewEndpoint(gc, true)
	eb := NewEndpoint(b, false)
	defer eb.Close()

	const n = 20
	got := make(chan []byte, n)
	eb.Start(func(msg []byte) { got <- msg }, nil)
	ea.Start(func([]byte) {}, nil)

	for i := 0; i < n; i++ {
		if err := ea.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case msg := <-got:
			if len(msg) != 1 || msg[0] != byte(i) {
				t.Fatalf("message %d = %v", i, msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d lost by close", i)
		}
	}
}

// TestWriteBackpressure: a producer outrunning the connection must block
// at the buffer cap instead of queueing unbounded memory, and resume once
// the connection drains.
func TestWriteBackpressure(t *testing.T) {
	a, b := simnet.Pipe(simnet.Unlimited())
	gate := make(chan struct{})
	gc := &gatedConn{Conn: a, gate: gate}
	ea := NewEndpoint(gc, true)
	eb := NewEndpoint(b, false)
	defer ea.Close()
	defer eb.Close()
	ea.Start(func([]byte) {}, nil)
	eb.Start(func([]byte) {}, nil)

	s := ea.OpenStream()
	// The writer double-buffers: one batch can be in flight while the
	// next fills, so ~2×writeBufLimit is absorbed without blocking. The
	// payload must exceed that for backpressure to engage.
	payload := make([]byte, 4*writeBufLimit)
	done := make(chan error, 1)
	go func() {
		done <- s.WriteOwned(payload, nil)
	}()
	select {
	case err := <-done:
		t.Fatalf("write of %d bytes finished with stalled conn (err=%v); backpressure missing", len(payload), err)
	case <-time.After(50 * time.Millisecond):
		// Blocked as expected.
	}
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream write never resumed after drain")
	}
}
