package gcf

// The receive loop reads a batch at a time (whatever one Read returns),
// so these tests drive an endpoint from a scripted net.Conn that decides,
// Read by Read, how the wire bytes are cut: what is delivered must not
// depend on the cuts, a message must never wait behind a Read that can
// block, a bulk payload's tail must not pass through the read buffer, and
// the buffer and every pooled frame must go back where they came from.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// step is one entry of a scriptConn's script: bytes for Read to hand out
// (over several calls when the caller's slice is smaller), a gate Read
// blocks on first, or an error Read returns.
type step struct {
	data []byte
	gate <-chan struct{}
	err  error
}

// readRec is what one Read call was handed and what it returned.
type readRec struct {
	p *byte // &p[0]
	c int   // cap(p)
	n int
}

// scriptConn is a net.Conn whose Read follows a script and whose Write
// records what the endpoint sent. With the script exhausted, Read closes
// idle and blocks until Close.
type scriptConn struct {
	net.Conn // nil: the endpoint calls Read, Write and Close only

	mu     sync.Mutex
	steps  []step
	calls  int       // Read calls entered
	reads  []readRec // Read calls that returned bytes
	out    bytes.Buffer
	wrote  chan struct{} // one token per Write, dropped when full
	idle   chan struct{}
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(steps ...step) *scriptConn {
	return &scriptConn{
		steps:  steps,
		wrote:  make(chan struct{}, 1),
		idle:   make(chan struct{}),
		closed: make(chan struct{}),
	}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.calls++
	for {
		if len(c.steps) == 0 {
			select {
			case <-c.idle:
			default:
				close(c.idle)
			}
			c.mu.Unlock()
			<-c.closed
			return 0, net.ErrClosed
		}
		st := &c.steps[0]
		if st.gate != nil {
			gate := st.gate
			c.mu.Unlock()
			select {
			case <-gate:
			case <-c.closed:
				return 0, net.ErrClosed
			}
			c.mu.Lock()
			st.gate = nil
			continue
		}
		if len(st.data) > 0 {
			n := copy(p, st.data)
			st.data = st.data[n:]
			c.reads = append(c.reads, readRec{p: &p[0], c: cap(p), n: n})
			c.mu.Unlock()
			return n, nil
		}
		err := st.err
		c.steps = c.steps[1:]
		if err != nil {
			c.mu.Unlock()
			return 0, err
		}
	}
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) readCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func (c *scriptConn) readLog() []readRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]readRec(nil), c.reads...)
}

// pongs counts the heartbeat answers among the whole frames written so far.
func (c *scriptConn) pongs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for b := c.out.Bytes(); len(b) >= 8; {
		ch, size := binary.LittleEndian.Uint32(b), int(binary.LittleEndian.Uint32(b[4:]))
		if len(b) < 8+size {
			break
		}
		if ch == hbChannel && size == 1 && b[8] == hbPong {
			n++
		}
		b = b[8+size:]
	}
	return n
}

// waitPongs blocks until the endpoint has written want pongs.
func (c *scriptConn) waitPongs(t testing.TB, want int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for c.pongs() < want {
		select {
		case <-c.wrote:
		case <-deadline:
			t.Fatalf("%d of %d pings answered", c.pongs(), want)
		}
	}
}

func appendFrame(dst []byte, ch uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, ch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// cut slices wire into Read-sized steps: sizes are used in turn and
// cycled; none means everything in one Read.
func cut(wire []byte, sizes []int) []step {
	if len(sizes) == 0 {
		return []step{{data: wire}}
	}
	var steps []step
	for i := 0; len(wire) > 0; i++ {
		n := min(max(sizes[i%len(sizes)], 1), len(wire))
		steps = append(steps, step{data: wire[:n]})
		wire = wire[n:]
	}
	return steps
}

// frameScript is a sequence of frames as wire bytes, with what an
// endpoint must make of it.
type frameScript struct {
	wire    []byte
	msgs    [][]byte          // in order; the last is the end marker
	streams map[uint32][]byte // every stream's bytes; all end in EOF
	pings   int
}

// decodeScript turns arbitrary bytes into a frame script, three bytes an
// op: small and large messages (some longer than the read buffer), small
// and bulk stream frames on three channels, end-of-stream frames, pings,
// pongs and malformed probes. Every stream used is closed at the end and
// a final message marks that everything before it has been parsed.
func decodeScript(b []byte) frameScript {
	const maxOps, maxWire = 96, 512 << 10
	sc := frameScript{streams: map[uint32][]byte{}}
	ended := map[uint32]bool{}
	seq := 0
	body := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(seq*131 + i*7)
		}
		seq++
		return p
	}
	for ops := 0; len(b) >= 3 && ops < maxOps && len(sc.wire) < maxWire; ops++ {
		op, x, y := b[0]%8, int(b[1]), int(b[2])
		b = b[3:]
		ch := uint32(1 + x%3)
		switch op {
		case 0, 1:
			p := body(x)
			sc.wire = appendFrame(sc.wire, msgChannel, p)
			sc.msgs = append(sc.msgs, p)
		case 2:
			p := body((x<<8 | y) % 40000)
			sc.wire = appendFrame(sc.wire, msgChannel, p)
			sc.msgs = append(sc.msgs, p)
		case 3, 4:
			if ended[ch] {
				continue
			}
			n := 1 + y
			if op == 4 {
				n = 1 + (x>>2<<8|y)*16 // up to maxFrame-15
			}
			p := body(n)
			sc.wire = appendFrame(sc.wire, ch, p)
			sc.streams[ch] = append(sc.streams[ch], p...)
		case 5:
			if ended[ch] {
				continue
			}
			ended[ch] = true
			sc.wire = appendFrame(sc.wire, ch, nil)
			if _, ok := sc.streams[ch]; !ok {
				sc.streams[ch] = nil // EOF and no bytes is a delivery too
			}
		case 6:
			sc.wire = appendFrame(sc.wire, hbChannel, []byte{hbPing})
			sc.pings++
		case 7:
			if x%2 == 0 {
				sc.wire = appendFrame(sc.wire, hbChannel, []byte{hbPong})
			} else {
				sc.wire = appendFrame(sc.wire, hbChannel, body(2+y)) // never a ping
			}
		}
	}
	for ch := range sc.streams {
		if !ended[ch] {
			sc.wire = appendFrame(sc.wire, ch, nil)
		}
	}
	end := []byte("end of script")
	sc.wire = appendFrame(sc.wire, msgChannel, end)
	sc.msgs = append(sc.msgs, end)
	return sc
}

// checkDelivery feeds sc to a fresh endpoint in the given pieces and
// requires exactly what the script says: the messages in order, each
// stream's bytes then EOF, one pong per ping.
func checkDelivery(t testing.TB, sc frameScript, sizes []int) {
	t.Helper()
	conn := newScriptConn(cut(sc.wire, sizes)...)
	e := NewEndpoint(conn, false)
	defer e.Close()
	var (
		mu   sync.Mutex
		got  [][]byte
		done = make(chan struct{})
	)
	e.Start(func(m []byte) {
		mu.Lock()
		got = append(got, m)
		if len(got) == len(sc.msgs) {
			close(done)
		}
		mu.Unlock()
	}, nil)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("cuts %v: %d of %d messages arrived", sizes, len(got), len(sc.msgs))
	}
	// The end marker is the last frame: every stream frame before it has
	// been pushed, and every ping before it queued its pong.
	for ch, want := range sc.streams {
		res := make(chan []byte, 1)
		go func() {
			p, err := io.ReadAll(e.Stream(ch))
			if err != nil {
				t.Errorf("cuts %v: stream %d: %v", sizes, ch, err)
			}
			res <- p
		}()
		select {
		case p := <-res:
			if !bytes.Equal(p, want) {
				t.Fatalf("cuts %v: stream %d delivered %d bytes, want %d (equal: false)", sizes, ch, len(p), len(want))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cuts %v: stream %d never reached EOF", sizes, ch)
		}
	}
	conn.waitPongs(t, sc.pings)
	e.Close() // an orderly close flushes what is still queued
	if n := conn.pongs(); n != sc.pings {
		t.Fatalf("cuts %v: %d pongs for %d pings", sizes, n, sc.pings)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(sc.msgs) {
		t.Fatalf("cuts %v: %d messages, want %d", sizes, len(got), len(sc.msgs))
	}
	for i := range got {
		if !bytes.Equal(got[i], sc.msgs[i]) {
			t.Fatalf("cuts %v: message %d is %d bytes %.16x, want %d bytes %.16x",
				sizes, i, len(got[i]), got[i], len(sc.msgs[i]), sc.msgs[i])
		}
	}
}

// TestDeliveryIndependentOfChunking: random frame scripts, each delivered
// a byte at a time, in pieces that split every header, in pieces around
// the read buffer's size, all at once and in seed-chosen pieces.
func TestDeliveryIndependentOfChunking(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		raw := make([]byte, 3*(4+rng.Intn(40)))
		rng.Read(raw)
		sc := decodeScript(raw)
		random := make([]int, 1+rng.Intn(16))
		for i := range random {
			switch rng.Intn(3) {
			case 0:
				random[i] = 1 + rng.Intn(16)
			case 1:
				random[i] = 1 + rng.Intn(2*readBufSize)
			default:
				random[i] = 1 + rng.Intn(300<<10)
			}
		}
		for _, sizes := range [][]int{nil, {1}, {7}, {8}, {9, 3}, {readBufSize}, {readBufSize + 1}, {readBufSize - 1, 5}, random} {
			checkDelivery(t, sc, sizes)
		}
	}
}

func FuzzReadChunking(f *testing.F) {
	f.Add([]byte{0, 5, 0, 6, 0, 0, 1, 9, 0}, []byte{})                              // message, ping, message in one Read
	f.Add([]byte{4, 255, 255, 0, 3, 0, 5, 0, 0}, []byte{1})                         // a bulk frame a byte at a time
	f.Add([]byte{2, 200, 10, 3, 1, 7, 4, 130, 1, 5, 1, 0, 6, 0, 0}, []byte{7, 200}) // split headers
	f.Add([]byte{2, 70, 0, 2, 70, 0, 0, 1, 0}, []byte{136})                         // messages longer than the buffer
	f.Fuzz(func(t *testing.T, script, cuts []byte) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			// Small pieces up to 127 bytes, then steps of 2 KiB up to 256 KiB.
			if sizes[i] = int(c); c >= 128 {
				sizes[i] = (int(c) - 127) << 11
			}
		}
		checkDelivery(t, decodeScript(script), sizes)
	})
}

// TestReadLoopOneReadPerBatch: 64 messages that arrive together cost one
// Read, not two apiece (the second call is the one that blocks for more).
func TestReadLoopOneReadPerBatch(t *testing.T) {
	const n = 64
	var wire []byte
	for i := 0; i < n; i++ {
		wire = appendFrame(wire, msgChannel, []byte{byte(i), 0xA5, byte(i)})
	}
	conn := newScriptConn(step{data: wire})
	e := NewEndpoint(conn, false)
	defer e.Close()
	got := make(chan []byte, n)
	e.Start(func(m []byte) { got <- m }, nil)
	for i := 0; i < n; i++ {
		select {
		case m := <-got:
			if want := []byte{byte(i), 0xA5, byte(i)}; !bytes.Equal(m, want) {
				t.Fatalf("message %d is %x, want %x", i, m, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d of %d never dispatched", i, n)
		}
	}
	if calls := conn.readCalls(); calls > 2 {
		t.Fatalf("%d messages in one segment took %d Read calls, want at most 2", n, calls)
	}
}

// TestBulkFrameBypassesReadBuffer: of a maxFrame stream frame only what
// arrived with its header passes through the read buffer; the rest is
// read into the pooled frame the stream will hand to its reader.
func TestBulkFrameBypassesReadBuffer(t *testing.T) {
	payload := make([]byte, maxFrame)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	wire := appendFrame(nil, 1, payload)
	conn := newScriptConn(step{data: wire})
	e := NewEndpoint(conn, false)
	defer e.Close()
	e.Start(func([]byte) {}, nil)
	select {
	case <-conn.idle:
	case <-time.After(10 * time.Second):
		t.Fatal("the frame was never consumed")
	}
	s := e.Stream(1)
	s.mu.Lock()
	if len(s.chunks) != 1 || !s.chunks[0].pooled || len(s.chunks[0].p) != maxFrame {
		s.mu.Unlock()
		t.Fatalf("stream holds %d chunks, want the one pooled frame", len(s.chunks))
	}
	frame := s.chunks[0].p
	s.mu.Unlock()

	buffered, direct := 0, 0
	for _, r := range conn.readLog() {
		if r.c <= readBufSize {
			buffered += r.n
			continue
		}
		// Not the read buffer: it must be the frame itself, at the offset
		// the bytes belong.
		if r.p != &frame[buffered-8+direct] {
			t.Fatalf("a Read of %d bytes went to neither the read buffer nor its place in the pooled frame", r.n)
		}
		direct += r.n
	}
	if buffered > readBufSize {
		t.Fatalf("%d bytes of a %d-byte frame passed through the %d-byte read buffer", buffered, maxFrame, readBufSize)
	}
	if buffered+direct != len(wire) {
		t.Fatalf("reads add up to %d bytes, wire is %d", buffered+direct, len(wire))
	}
	got := make([]byte, maxFrame)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

// TestMessageNotHeldBehindBlockingRead: a whole message followed by part
// of the next frame, then silence. The peer may be waiting for the reply
// to the message before it sends the rest, so the handler must run while
// the conn is still blocked.
func TestMessageNotHeldBehindBlockingRead(t *testing.T) {
	first, second := []byte("request the peer waits on"), bytes.Repeat([]byte{7}, 100)
	next := appendFrame(nil, msgChannel, second)
	for _, tc := range []struct {
		name string
		held int // bytes of the second frame that arrive with the first
	}{
		{"mid-header", 5},
		{"mid-payload", 8 + 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			wire := append(appendFrame(nil, msgChannel, first), next[:tc.held]...)
			conn := newScriptConn(step{data: wire}, step{gate: gate}, step{data: next[tc.held:]})
			e := NewEndpoint(conn, false)
			defer e.Close()
			got := make(chan []byte, 2)
			e.Start(func(m []byte) { got <- m }, nil)
			select {
			case m := <-got:
				if !bytes.Equal(m, first) {
					t.Fatalf("got %q", m)
				}
			case <-time.After(5 * time.Second):
				close(gate)
				t.Fatal("the message was held back while the conn blocked")
			}
			close(gate)
			select {
			case m := <-got:
				if !bytes.Equal(m, second) {
					t.Fatalf("got %x", m)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the second message never arrived")
			}
		})
	}
}

// TestPingAnsweredInsideBatch: a ping between two messages of one Read is
// answered, and neither message is lost to it.
func TestPingAnsweredInsideBatch(t *testing.T) {
	wire := appendFrame(nil, msgChannel, []byte("before"))
	wire = appendFrame(wire, hbChannel, []byte{hbPing})
	wire = appendFrame(wire, msgChannel, []byte("after"))
	conn := newScriptConn(step{data: wire})
	e := NewEndpoint(conn, false)
	defer e.Close()
	got := make(chan string, 2)
	e.Start(func(m []byte) { got <- string(m) }, nil)
	for _, want := range []string{"before", "after"} {
		select {
		case m := <-got:
			if m != want {
				t.Fatalf("got %q, want %q", m, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q never arrived", want)
		}
	}
	conn.waitPongs(t, 1)
}

// TestOversizeHeaderRefusedBeforeAllocation: a header announcing more
// than maxFrame shuts the endpoint down without allocating what it
// announces, however the header is cut, and the message ahead of it in
// the same batch is still delivered.
func TestOversizeHeaderRefusedBeforeAllocation(t *testing.T) {
	wire := appendFrame(nil, msgChannel, []byte("ahead"))
	wire = binary.LittleEndian.AppendUint32(wire, 3)
	wire = binary.LittleEndian.AppendUint32(wire, maxFrame+1)
	for _, sizes := range [][]int{nil, {1}, {4}, {len(wire) - 1}} {
		conn := newScriptConn(cut(wire, sizes)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := NewEndpoint(conn, false)
		got := make(chan string, 1)
		e.Start(func(m []byte) { got <- string(m) }, nil)
		select {
		case <-e.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("cuts %v: endpoint survived an oversized header", sizes)
		}
		runtime.ReadMemStats(&after)
		if err := e.CloseErr(); err == nil || !strings.Contains(err.Error(), "oversized frame") {
			t.Fatalf("cuts %v: closed with %v", sizes, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxFrame {
			t.Fatalf("cuts %v: %d bytes allocated on the way to refusing a %d-byte frame", sizes, grew, maxFrame+1)
		}
		select {
		case m := <-got:
			if m != "ahead" {
				t.Fatalf("cuts %v: got %q", sizes, m)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cuts %v: the message ahead of the bad header was dropped", sizes)
		}
	}
}

// TestCutMidPayloadReturnsFrame: a connection that dies partway through a
// bulk payload shuts the endpoint down, and the pooled frame being filled
// goes back to its pool — seen as the same memory being handed to a later
// endpoint's Read (every frame seen stays referenced, so a fresh
// allocation cannot land on an old address).
func TestCutMidPayloadReturnsFrame(t *testing.T) {
	const size, arrived = 100 << 10, 1000
	head := binary.LittleEndian.AppendUint32(nil, 1)
	head = binary.LittleEndian.AppendUint32(head, size)
	head = append(head, make([]byte, arrived)...)
	seen := map[*byte]bool{}
	reused := 0
	for i := 0; i < 64; i++ {
		conn := newScriptConn(step{data: head}, step{data: make([]byte, 10)}, step{err: io.ErrUnexpectedEOF})
		e := NewEndpoint(conn, false)
		e.Start(func([]byte) {}, nil)
		select {
		case <-e.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("endpoint survived a cut connection")
		}
		if err := e.CloseErr(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("closed with %v", err)
		}
		log := conn.readLog()
		if len(log) != 2 || log[1].c <= readBufSize {
			t.Fatalf("read log %+v: want the buffer fill, then the frame's tail", log)
		}
		if seen[log[1].p] {
			reused++
		}
		seen[log[1].p] = true
	}
	if reused == 0 {
		t.Fatal("no frame of 64 cut transfers ever came back from the pool")
	}
}

// TestEndpointChurnReusesReadBuffers opens and closes 1,000 endpoint
// pairs over TCP loopback — some whose far side never starts its loops,
// all of whose near side dies on a read error — and requires the bytes
// allocated per pair to stay below one read buffer: the buffers are
// pooled and every exit of the loop hands its one back.
func TestEndpointChurnReusesReadBuffers(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer lis.Close()
	round := func(i int) {
		ca, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cb, err := lis.Accept()
		if err != nil {
			t.Fatal(err)
		}
		ea, eb := NewEndpoint(ca, true), NewEndpoint(cb, false)
		echoed := make(chan struct{}, 1)
		ea.Start(func([]byte) { echoed <- struct{}{} }, nil)
		if i%4 != 3 {
			eb.Start(func(m []byte) { _ = eb.Send(m) }, nil)
			if err := ea.Send([]byte{1}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-echoed:
			case <-time.After(10 * time.Second):
				t.Fatal("no echo")
			}
		}
		eb.Close()
		select {
		case <-ea.Done(): // its read loop saw the close and left
		case <-time.After(10 * time.Second):
			t.Fatal("the near side never noticed the close")
		}
	}
	for i := 0; i < 50; i++ {
		round(i)
	}
	const pairs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		round(i)
	}
	runtime.ReadMemStats(&after)
	perPair := (after.TotalAlloc - before.TotalAlloc) / pairs
	t.Logf("%d bytes allocated per endpoint pair (read buffer: %d)", perPair, readBufSize)
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose.
	if perPair >= readBufSize && !raceEnabled {
		t.Fatalf("an endpoint pair allocates %d bytes, a read buffer is %d", perPair, readBufSize)
	}
}
