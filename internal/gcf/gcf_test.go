package gcf

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/simnet"
)

func pair() (*Endpoint, *Endpoint, func()) {
	a, b := simnet.Pipe(simnet.Unlimited())
	ea := NewEndpoint(a, true)
	eb := NewEndpoint(b, false)
	return ea, eb, func() {
		if err := ea.Close(); err != nil {
			_ = err
		}
		if err := eb.Close(); err != nil {
			_ = err
		}
	}
}

func TestMessagesPreserveOrder(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()

	const n = 500
	got := make(chan []byte, n)
	eb.Start(func(msg []byte) { got <- msg }, nil)
	ea.Start(func([]byte) {}, nil)

	for i := 0; i < n; i++ {
		if err := ea.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case msg := <-got:
			want := fmt.Sprintf("msg-%04d", i)
			if string(msg) != want {
				t.Fatalf("message %d = %q, want %q (order broken)", i, msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at message %d", i)
		}
	}
}

func TestBidirectionalMessages(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	fromA := make(chan []byte, 1)
	fromB := make(chan []byte, 1)
	ea.Start(func(m []byte) { fromB <- m }, nil)
	eb.Start(func(m []byte) { fromA <- m }, nil)
	if err := ea.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := eb.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if string(<-fromA) != "ping" || string(<-fromB) != "pong" {
		t.Fatal("bidirectional exchange failed")
	}
}

func TestStreamBulkTransfer(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)

	// The client announces the stream ID in a message; the server reads
	// the announced stream — the dOpenCL bulk-data pattern.
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	result := make(chan []byte, 1)
	eb.Start(func(msg []byte) {
		id := uint32(msg[0])<<24 | uint32(msg[1])<<16 | uint32(msg[2])<<8 | uint32(msg[3])
		s := eb.Stream(id)
		data, err := io.ReadAll(s)
		if err != nil {
			t.Errorf("stream read: %v", err)
		}
		result <- data
	}, nil)

	s := ea.OpenStream()
	id := s.ID()
	if err := ea.Send([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteOwned(payload, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-result:
		if !bytes.Equal(data, payload) {
			t.Fatal("stream payload corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream transfer timeout")
	}
}

func TestStreamsInterleaveWithMessages(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	var msgCount sync.WaitGroup
	msgCount.Add(50)
	eb.Start(func(msg []byte) {
		if string(msg[:3]) == "msg" {
			msgCount.Done()
		}
	}, nil)

	// Bulk stream and small messages share the connection; messages must
	// keep flowing while the stream is active.
	s := ea.OpenStream()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1<<20)
		for i := 0; i < 8; i++ {
			if err := s.WriteOwned(buf, nil); err != nil {
				t.Errorf("stream write: %v", err)
				return
			}
		}
		if err := s.CloseWrite(); err != nil {
			t.Errorf("close write: %v", err)
		}
	}()
	for i := 0; i < 50; i++ {
		if err := ea.Send([]byte("msg!")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		msgCount.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages starved by bulk stream")
	}
	wg.Wait()
	// Drain the stream server-side.
	data, err := io.ReadAll(eb.Stream(s.ID()))
	if err != nil || len(data) != 8<<20 {
		t.Fatalf("stream drain: %d bytes, %v", len(data), err)
	}
}

func TestStreamIDAllocation(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	s1 := ea.OpenStream()
	s2 := ea.OpenStream()
	s3 := eb.OpenStream()
	if s1.ID()%2 != 1 || s2.ID()%2 != 1 {
		t.Errorf("client stream IDs must be odd: %d %d", s1.ID(), s2.ID())
	}
	if s3.ID()%2 != 0 {
		t.Errorf("server stream IDs must be even: %d", s3.ID())
	}
	if s1.ID() == s2.ID() {
		t.Error("duplicate stream IDs")
	}
}

func TestCloseFailsPendingReads(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	closed := make(chan error, 1)
	eb.Start(func([]byte) {}, func(err error) { closed <- err })

	s := eb.Stream(99)
	readErr := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 16))
		readErr <- err
	}()
	if err := ea.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("pending stream read survived close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending stream read not unblocked")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("onClose not invoked")
	}
	if err := ea.Send([]byte("late")); err == nil {
		t.Fatal("send after close succeeded")
	}
	select {
	case <-ea.Done():
	default:
		t.Fatal("Done channel not closed")
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	ea, _, cleanup := pair()
	defer cleanup()
	if err := ea.Send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestConcurrentSenders(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)
	var received sync.WaitGroup
	const senders, perSender = 8, 100
	received.Add(senders * perSender)
	eb.Start(func(msg []byte) { received.Done() }, nil)

	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < perSender; i++ {
				if err := ea.Send([]byte{byte(s), byte(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		received.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent sends lost messages")
	}
}

// The close notice is the last thing a connection delivers: it runs once,
// after the handler of every message queued before the close, and never
// beside a handler. The receiver's first handler is held while Close runs
// from another goroutine, with the other messages queued behind it.
func TestCloseNoticeRunsAfterTheLastHandler(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func(*testing.T) (*Endpoint, *Endpoint)
	}{
		{"local", func(*testing.T) (*Endpoint, *Endpoint) { return NewLocalPair() }},
		{"tcp", loopbackPair},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send, recv := tc.pair(t)
			defer send.Close()
			const n = 8
			var handled atomic.Int32
			entered, release := make(chan struct{}), make(chan struct{})
			notices := make(chan int32, 2) // messages handled when each notice ran
			recv.Start(func([]byte) {
				if handled.Add(1) == 1 {
					close(entered)
					<-release
				}
			}, func(error) { notices <- handled.Load() })
			send.Start(func([]byte) {}, nil)
			for i := range n {
				if err := send.Send([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					<-entered
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for queued(recv) < n-1 {
				if time.Now().After(deadline) {
					t.Fatalf("%d messages queued behind the held handler, want %d", queued(recv), n-1)
				}
				time.Sleep(time.Millisecond)
			}

			closed := make(chan struct{})
			go func() { recv.Close(); close(closed) }()
			<-closed
			<-recv.Done()
			select {
			case got := <-notices:
				t.Fatalf("the close notice ran with a handler in progress (%d handled)", got)
			default:
			}
			close(release)
			select {
			case got := <-notices:
				if got != n {
					t.Fatalf("the close notice ran after %d of %d queued messages", got, n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no close notice after the handler was released")
			}
			send.Close()
			recv.Close()
			select {
			case <-notices:
				t.Fatal("the close notice ran twice")
			case <-time.After(20 * time.Millisecond):
			}
		})
	}
}

// queued counts the messages waiting for the dispatcher.
func queued(e *Endpoint) int {
	e.msgMu.Lock()
	defer e.msgMu.Unlock()
	return len(e.msgs)
}
