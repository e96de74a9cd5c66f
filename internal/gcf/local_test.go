package gcf

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// startLocalPair builds a connected local pair with message capture on
// the server side.
func startLocalPair(t *testing.T) (client, server *Endpoint, serverMsgs chan []byte) {
	t.Helper()
	client, server = NewLocalPair()
	serverMsgs = make(chan []byte, 64)
	server.Start(func(msg []byte) { serverMsgs <- msg }, nil)
	client.Start(func(msg []byte) {}, nil)
	t.Cleanup(func() { client.Close() })
	return client, server, serverMsgs
}

func TestLocalPairMessageCopyAndOrder(t *testing.T) {
	client, _, msgs := startLocalPair(t)
	buf := make([]byte, 7)
	for i := 0; i < 10; i++ {
		copy(buf, "hello-")
		buf[6] = '0' + byte(i)
		if err := client.Send(buf); err != nil {
			t.Fatal(err)
		}
		// Send's contract returns ownership immediately: scribbling over
		// the slice here must not affect the message in flight.
		copy(buf, "XXXXXXX")
	}
	for i := 0; i < 10; i++ {
		select {
		case m := <-msgs:
			want := "hello-" + string(rune('0'+i))
			if string(m) != want {
				t.Fatalf("message %d: got %q want %q", i, m, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

func TestLocalWriteOwnedZeroCopyRelease(t *testing.T) {
	client, server, _ := startLocalPair(t)
	st := client.OpenStream()
	// Larger than maxFrame so the chop/refcount path runs.
	data := bytes.Repeat([]byte{0x5C}, maxFrame*3+12345)
	var released atomic.Int32
	if err := st.WriteOwned(data, func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	ps := server.Stream(st.ID())
	got := make([]byte, len(data))
	if _, err := io.ReadFull(ps, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("owned hand-off corrupted payload")
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("release fired %d times, want exactly 1", n)
	}
	ps.WaitEOF()
	ps.Release()
	st.Release()
}

func TestLocalWriteOwnedReleaseOnShutdown(t *testing.T) {
	client, _, _ := startLocalPair(t)
	st := client.OpenStream()
	var released atomic.Int32
	if err := st.WriteOwned(make([]byte, maxFrame*2), func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	// Nobody ever reads the peer stream: closing the endpoint must still
	// hand the buffer back (the local analogue of the shutdown drain).
	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for released.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("release fired %d times after shutdown, want exactly 1", released.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLocalClosePropagates(t *testing.T) {
	client, server, _ := startLocalPair(t)
	client.Close()
	select {
	case <-server.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer endpoint did not shut down")
	}
	if err := client.Send([]byte("x")); err == nil {
		t.Fatal("send on closed local endpoint succeeded")
	}
}

func TestLocalWriteAfterPeerEOFReclaims(t *testing.T) {
	client, server, _ := startLocalPair(t)
	st := client.OpenStream()
	ps := server.Stream(st.ID())
	// Receiver already saw an error (simulated by closing its read side):
	// subsequent hand-offs must fire release instead of parking forever.
	ps.closeRead(io.ErrUnexpectedEOF)
	var released atomic.Int32
	if err := st.WriteOwned(make([]byte, 100), func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("release fired %d times on dead-stream hand-off, want 1", n)
	}
	st.Release()
	ps.Release()
}

func TestRegisterLocalDuplicate(t *testing.T) {
	if err := RegisterLocal("dup-addr", func(*Endpoint) {}); err != nil {
		t.Fatal(err)
	}
	defer UnregisterLocal("dup-addr")
	if err := RegisterLocal("dup-addr", func(*Endpoint) {}); err == nil {
		t.Fatal("duplicate RegisterLocal succeeded")
	}
	if _, ok := DialLocal("no-such-addr"); ok {
		t.Fatal("DialLocal resolved an unregistered address")
	}
}
