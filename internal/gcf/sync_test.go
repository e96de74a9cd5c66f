package gcf

import (
	"net"
	"testing"
	"time"
)

// What a sender did before Send happens before what the receiver does
// with the frame, and the race detector must see it that way over a real
// socket too: writev publishes no edge of its own (sync_race.go). A plain
// counter is passed back and forth over TCP loopback, each side
// incrementing it only between receiving a frame and sending the next —
// no channel, mutex or atomic of the test's orders the two dispatch
// goroutines. Under -race this fails without raceRelease/raceAcquire.
func TestFrameOrdersSenderBeforeReceiverOverTCP(t *testing.T) {
	ea, eb := loopbackPair(t)
	defer ea.Close()
	defer eb.Close()

	const rounds = 200
	ball := 0
	done := make(chan struct{})
	hit := func(back *Endpoint) Handler {
		return func([]byte) {
			ball++
			if ball == rounds {
				close(done)
				return
			}
			if err := back.Send([]byte{1}); err != nil {
				t.Error(err)
			}
		}
	}
	ea.Start(hit(ea), nil)
	eb.Start(hit(eb), nil)
	ball++
	if err := ea.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the rally never finished")
	}
	if ball != rounds {
		t.Fatalf("ball = %d after %d hits", ball, rounds)
	}
}

// loopbackPair returns two endpoints over a TCP loopback connection.
func loopbackPair(t *testing.T) (client, server *Endpoint) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			close(accepted)
			return
		}
		accepted <- c
	}()
	ca, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cb, ok := <-accepted
	if !ok {
		t.FailNow()
	}
	return NewEndpoint(ca, true), NewEndpoint(cb, false)
}
