package simnet

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeDataIntegrity(t *testing.T) {
	a, b := Pipe(Unlimited())
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	go func() {
		if _, err := a.Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted in transit")
	}
}

func TestPipeBandwidthModel(t *testing.T) {
	// 1 MB at a modeled 10 MB/s should take ~100 ms (modeled), scaled to
	// ~10 ms real at 0.1.
	cfg := LinkConfig{BandwidthBps: 10e6, TimeScale: 0.1}
	a, b := Pipe(cfg)
	const n = 1 << 20
	go func() {
		buf := make([]byte, 64<<10)
		sent := 0
		for sent < n {
			m, err := a.Write(buf)
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += m
		}
	}()
	start := time.Now()
	got := 0
	buf := make([]byte, 64<<10)
	for got < n {
		m, err := b.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got += m
	}
	elapsed := time.Since(start)
	modeled := elapsed.Seconds() / 0.1
	if modeled < 0.05 || modeled > 0.5 {
		t.Errorf("1MB at 10MB/s took %.3f modeled seconds, want ~0.1", modeled)
	}
}

func TestSlowStartPenalizesShortTransfers(t *testing.T) {
	cfg := LinkConfig{
		BandwidthBps: 10e6, TimeScale: 0.1,
		SlowStartBytes: 512 << 10, SlowStartFactor: 0.5,
	}
	measure := func(n int) float64 {
		a, b := Pipe(cfg)
		go func() {
			buf := make([]byte, 64<<10)
			sent := 0
			for sent < n {
				m, err := a.Write(buf)
				if err != nil {
					return
				}
				sent += m
			}
		}()
		start := time.Now()
		buf := make([]byte, 64<<10)
		got := 0
		for got < n {
			m, err := b.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			got += m
		}
		sec := time.Since(start).Seconds() / 0.1
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(n) / sec
	}
	smallBW := measure(256 << 10) // entirely inside the ramp
	bigBW := measure(8 << 20)     // ramp amortized
	if smallBW >= bigBW {
		t.Errorf("slow start had no effect: small %.0f B/s >= big %.0f B/s", smallBW, bigBW)
	}
}

func TestSharedLimiterBoundsAggregate(t *testing.T) {
	// Two links sharing one limiter must halve each other's throughput.
	shared := NewLimiter()
	cfg := LinkConfig{BandwidthBps: 10e6, TimeScale: 0.1, Shared: shared}
	const n = 1 << 20
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		a, b := Pipe(cfg)
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			sent := 0
			for sent < n {
				m, err := a.Write(buf)
				if err != nil {
					return
				}
				sent += m
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			got := 0
			for got < n {
				m, err := b.Read(buf)
				if err != nil {
					return
				}
				got += m
			}
		}()
	}
	wg.Wait()
	modeled := time.Since(start).Seconds() / 0.1
	// 2 MB total over a shared 10 MB/s wire ≈ 0.2 s modeled.
	if modeled < 0.1 {
		t.Errorf("shared limiter not enforced: 2MB in %.3f modeled s", modeled)
	}
}

func TestNetworkDialAndListen(t *testing.T) {
	nw := NewNetwork(Unlimited())
	l, err := nw.Listen("server:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("server:1"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
	if _, err := nw.Dial("nobody"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := conn.Write(bytes.ToUpper(buf)); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()
	conn, err := nw.Dial("server:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("echo = %q", buf)
	}
	<-done
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Dial("server:1"); err == nil {
		t.Fatal("dial after close succeeded")
	}
	// Address becomes reusable after close.
	if _, err := nw.Listen("server:1"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestCloseUnblocksReader(t *testing.T) {
	a, b := Pipe(Unlimited())
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := b.Read(buf)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != io.EOF {
			t.Fatalf("read after close = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestConnAddrs(t *testing.T) {
	a, b := NamedPipe(Unlimited(), "left", "right")
	if a.LocalAddr().String() != "left" || a.RemoteAddr().String() != "right" {
		t.Errorf("a addrs: %v %v", a.LocalAddr(), a.RemoteAddr())
	}
	if b.LocalAddr().Network() != "simnet" {
		t.Errorf("network = %q", b.LocalAddr().Network())
	}
	if err := a.SetDeadline(time.Now()); err != nil {
		t.Errorf("SetDeadline: %v", err)
	}
}

// TestPipeNeverLosesBytes property-tests arbitrary write patterns against
// the byte count conservation invariant.
func TestPipeNeverLosesBytes(t *testing.T) {
	f := func(sizes []uint16) bool {
		a, b := Pipe(Unlimited())
		total := 0
		go func() {
			for _, s := range sizes {
				n := int(s%4096) + 1
				if _, err := a.Write(make([]byte, n)); err != nil {
					return
				}
			}
			if err := a.Close(); err != nil {
				return
			}
		}()
		for _, s := range sizes {
			total += int(s%4096) + 1
		}
		got, err := io.ReadAll(b)
		return err == nil && len(got) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sinkListener accepts connections and discards everything it reads.
func sinkListener(t *testing.T, nw *Network, addr string) {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
}

func TestPerPairLinksAndByteAccounting(t *testing.T) {
	nw := NewNetwork(Unlimited())
	sinkListener(t, nw, "b")
	// The a→b pair gets its own (still unlimited) link config; the
	// point here is routing and accounting, not pacing.
	nw.SetLinkBetween("a", "b", Unlimited())

	conn, err := nw.DialFrom("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 10_000)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	if got := nw.BytesSent("a", "b"); got != 10_000 {
		t.Fatalf("BytesSent(a,b) = %d, want 10000", got)
	}
	if got := nw.BytesSent("b", "a"); got != 0 {
		t.Fatalf("BytesSent(b,a) = %d, want 0", got)
	}
	// A second connection accumulates into the same pair counter.
	conn2, err := nw.DialFrom("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write(payload[:500]); err != nil {
		t.Fatal(err)
	}
	if got := nw.BytesSent("a", "b"); got != 10_500 {
		t.Fatalf("BytesSent(a,b) after second conn = %d, want 10500", got)
	}
	// Anonymous dials are accounted under the client pseudo-identity.
	conn3, err := nw.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn3.Write(payload[:100]); err != nil {
		t.Fatal(err)
	}
	if got := nw.BytesSent("client:b", "b"); got != 100 {
		t.Fatalf("BytesSent(client:b, b) = %d, want 100", got)
	}
}

func TestPerPairLinkOverridesDestinationLink(t *testing.T) {
	// Destination-level config says "fail instantly"; the a→b pair link
	// overrides it with a healthy link, and an anonymous dial still gets
	// the destination-level config.
	nw := NewNetwork(Unlimited())
	sinkListener(t, nw, "b")
	nw.SetLink("b", LinkConfig{FailAfterBytes: 1})
	nw.SetLinkBetween("a", "b", Unlimited())

	healthy, err := nw.DialFrom("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := healthy.Write(make([]byte, 4096)); err != nil {
		t.Fatalf("pair-link write failed: %v", err)
	}
	flaky, err := nw.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flaky.Write(make([]byte, 4096)); err == nil {
		t.Fatal("destination-level flaky link did not fail")
	}
}

func TestFailAfterBytesTruncatesMidWrite(t *testing.T) {
	a, b := Pipe(LinkConfig{FailAfterBytes: 1000})
	writeErr := make(chan error, 1)
	go func() {
		_, err := a.Write(make([]byte, 5000))
		writeErr <- err
	}()
	got := 0
	buf := make([]byte, 512)
	for {
		n, err := b.Read(buf)
		got += n
		if err != nil {
			if err != io.EOF {
				t.Fatalf("reader error = %v, want EOF", err)
			}
			break
		}
	}
	if got != 1000 {
		t.Fatalf("delivered %d bytes, want exactly the 1000-byte fault budget", got)
	}
	if err := <-writeErr; err == nil {
		t.Fatal("oversized write did not report the link failure")
	}
	// The link stays dead.
	if _, err := a.Write([]byte{1}); err == nil {
		t.Fatal("write after fault succeeded")
	}
}

// TestDialRacesListenerClose: a dial that finds the listener registered
// and that listener's Close run at the same time, 20,000 times on one
// address. The dial either connects or is refused; it used to panic with
// a send on the closed accept channel when Close ran between its lookup
// and its send.
func TestDialRacesListenerClose(t *testing.T) {
	n := NewNetwork(Unlimited())
	var spin atomic.Int64
	for i := 0; i < 20000; i++ {
		l, err := n.Listen("a")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if c, err := n.Dial("a"); err == nil {
				c.Close()
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			// Sweep the close across the dial: 0 to ~4 µs after the start.
			for j := 0; j < i%4096; j++ {
				spin.Add(1)
			}
			l.Close()
		}()
		close(start)
		wg.Wait()
	}
}
