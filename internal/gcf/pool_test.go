package gcf

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeDialer returns a dialer over in-memory pipes plus a counter of
// dials and a hook receiving the server side of each connection.
func pipeDialer(onServer func(net.Conn)) (func(string) (net.Conn, error), *atomic.Int32) {
	dials := &atomic.Int32{}
	dial := func(addr string) (net.Conn, error) {
		if addr == "unreachable" {
			return nil, fmt.Errorf("no route to %s", addr)
		}
		dials.Add(1)
		c, s := net.Pipe()
		if onServer != nil {
			onServer(s)
		}
		return c, nil
	}
	return dial, dials
}

func TestPoolReusesConnections(t *testing.T) {
	var serverEPs []*Endpoint
	var mu sync.Mutex
	dial, dials := pipeDialer(func(s net.Conn) {
		ep := NewEndpoint(s, false)
		ep.Start(func([]byte) {}, nil)
		mu.Lock()
		serverEPs = append(serverEPs, ep)
		mu.Unlock()
	})
	p := NewPool(dial, nil)
	defer p.Close()

	ep1, err := p.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := p.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if ep1 != ep2 {
		t.Fatal("second Get did not reuse the pooled endpoint")
	}
	if _, err := p.Get("b"); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d, want 2 (one per address)", n)
	}
	if p.Len() != 2 {
		t.Fatalf("pool len = %d, want 2", p.Len())
	}
}

func TestPoolEvictsDeadConnections(t *testing.T) {
	dial, dials := pipeDialer(func(s net.Conn) {
		ep := NewEndpoint(s, false)
		ep.Start(func([]byte) {}, nil)
	})
	p := NewPool(dial, nil)
	defer p.Close()

	ep1, err := p.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	ep1.Close()
	<-ep1.Done()
	// Eviction runs on the endpoint's close path; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var ep2 *Endpoint
	for time.Now().Before(deadline) {
		ep2, err = p.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if ep2 != ep1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if ep2 == ep1 {
		t.Fatal("dead endpoint was not evicted")
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d, want 2 (re-dial after eviction)", n)
	}
}

func TestPoolDialFailureIsRetriable(t *testing.T) {
	dial, _ := pipeDialer(nil)
	p := NewPool(dial, nil)
	defer p.Close()
	if _, err := p.Get("unreachable"); err == nil {
		t.Fatal("dial to unreachable address succeeded")
	}
	// The failed entry must not wedge the slot.
	if _, err := p.Get("unreachable"); err == nil {
		t.Fatal("second dial to unreachable address succeeded")
	}
	if p.Len() != 0 {
		t.Fatalf("pool len = %d after failed dials, want 0", p.Len())
	}
}

func TestPoolConcurrentGetSingleDial(t *testing.T) {
	dial, dials := pipeDialer(func(s net.Conn) {
		ep := NewEndpoint(s, false)
		ep.Start(func([]byte) {}, nil)
	})
	slowDial := func(addr string) (net.Conn, error) {
		time.Sleep(10 * time.Millisecond)
		return dial(addr)
	}
	p := NewPool(slowDial, nil)
	defer p.Close()

	const workers = 16
	eps := make([]*Endpoint, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := p.Get("a")
			if err != nil {
				t.Error(err)
				return
			}
			eps[i] = ep
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if eps[i] != eps[0] {
			t.Fatal("concurrent Gets returned different endpoints")
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials = %d, want 1 (singleflight)", n)
	}
}

func TestPoolHandshakeFailureDiscards(t *testing.T) {
	dial, _ := pipeDialer(func(s net.Conn) {
		ep := NewEndpoint(s, false)
		ep.Start(func([]byte) {}, nil)
	})
	p := NewPool(dial, func(*Endpoint) error {
		return fmt.Errorf("handshake rejected")
	})
	defer p.Close()
	if _, err := p.Get("a"); err == nil {
		t.Fatal("handshake failure not surfaced")
	}
	if p.Len() != 0 {
		t.Fatalf("pool len = %d after handshake failure, want 0", p.Len())
	}
}
