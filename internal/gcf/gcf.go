// Package gcf is this repository's rendering of the Generic Communication
// Framework used by the paper's dOpenCL implementation (part of the
// Real-Time Framework): an asynchronous transport offering the two
// communication patterns of Section III-B:
//
//   - message-based communication — request, response and notification
//     messages used to execute OpenCL functions remotely and to push
//     status updates; and
//   - stream-based communication — bidirectional raw byte streams for
//     bulk data (buffer uploads/downloads of up to gigabytes).
//
// Both patterns are multiplexed over a single net.Conn using length-
// prefixed frames: channel 0 carries messages, channels ≥ 1 carry stream
// data. A zero-length stream frame closes the stream's write side. All
// sends are serialized by a writer lock; the receive loop never blocks on
// user code (messages are dispatched by a dedicated goroutine, preserving
// order), so a handler may synchronously read stream data that arrives on
// the same connection. The close notice is the dispatcher's last delivery,
// after the handler of every message queued before the close.
//
// The receive loop batches the way the write loop does. It reads the
// connection through a pooled readBufSize buffer: every frame one Read
// returned is parsed out of it, the messages among them are queued for
// the dispatcher under one lock with one wake, and their bodies share one
// allocation. The part of a payload that did not arrive with its header
// bypasses the buffer: it is read straight into the pooled frame or body
// it belongs to. Two rules keep that safe. A parsed message is never held
// back across a Read that can block — the peer may be waiting for the
// reply to it before sending another byte — so the batch is published
// before fetching a header or a payload tail the buffer does not hold.
// And bodies are copied out of the buffer, never aliased to it: dispatch
// is asynchronous and a response body outlives its handler in the
// caller that waited for it.
package gcf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	// maxFrame bounds a single frame payload; streams chop bulk data into
	// frames of at most this size so message latency stays bounded even
	// during multi-gigabyte transfers.
	maxFrame = 256 << 10
	// msgChannel is the frame channel carrying messages.
	msgChannel = uint32(0)
	// hbChannel is the reserved frame channel carrying heartbeat probes.
	// Probes never reach handlers or streams; any endpoint answers a ping
	// with a pong, so only the probing side needs StartHeartbeat.
	hbChannel = ^uint32(0)
	// hbPing / hbPong are the 1-byte heartbeat payloads.
	hbPing = byte(0)
	hbPong = byte(1)
	// writeBufLimit caps the outbound coalescing buffer; producers block
	// (backpressure) once this much data is waiting on the write loop.
	writeBufLimit = 4 << 20
	// closeFlushTimeout bounds how long shutdown waits for the write loop
	// to drain buffered frames before force-closing the connection.
	closeFlushTimeout = 5 * time.Second
)

// frameClasses are the size classes of the inbound frame pool. Bulk
// transfers chop data into maxFrame frames; without pooling every frame
// is a fresh quarter-megabyte allocation that lives exactly as long as
// one copy into the consumer's buffer, and the allocator + GC churn
// dominates single-core transfer cost. Small frames (command responses,
// short reads) previously still drew maxFrame-sized slices from a single
// pool; the classes keep a 100-byte frame from pinning 256 KiB.
var frameClasses = [...]int{4 << 10, 64 << 10, maxFrame}

var framePools = [len(frameClasses)]sync.Pool{
	{New: func() any { return make([]byte, frameClasses[0]) }},
	{New: func() any { return make([]byte, frameClasses[1]) }},
	{New: func() any { return make([]byte, frameClasses[2]) }},
}

// getFrame draws a pooled buffer of length n (n ≤ maxFrame) from the
// smallest fitting class. The returned slice's capacity is exactly the
// class size, which is what putFrame keys on.
func getFrame(n int) []byte {
	for i, sz := range frameClasses {
		if n <= sz {
			return framePools[i].Get().([]byte)[:n]
		}
	}
	return make([]byte, n) // unreachable for n ≤ maxFrame
}

// putFrame returns a buffer drawn by getFrame. Buffers whose capacity is
// not exactly a class size are NOT ours (an aliased sub-slice, a foreign
// buffer) and are dropped for the GC instead of poisoning the pool —
// putting an alias would hand the same memory to two owners.
func putFrame(p []byte) {
	c := cap(p)
	for i, sz := range frameClasses {
		if c == sz {
			framePools[i].Put(p[:sz])
			return
		}
	}
}

// Payload pools: larger size-classed pools for whole staged payloads
// (daemon read/write staging, peer-transfer staging), shared across the
// process so the enqueue/read/forward hot paths allocate ~0 bytes per
// op in steady state. Classes are powers of two from 4 KiB to 16 MiB;
// larger payloads fall back to plain allocation.
const (
	payloadMinShift = 12 // 4 KiB
	payloadMaxShift = 24 // 16 MiB
)

// payloadPools hold each buffer as the *byte of its first element, the
// class giving the length back: a pointer fits sync.Pool's interface
// word, where a slice header would be boxed — one allocation per Put.
var payloadPools [payloadMaxShift - payloadMinShift + 1]sync.Pool

// GetPayload returns a buffer of length n, drawn from a process-wide
// size-classed pool when n fits a class. Contents are NOT zeroed: every
// user fills the buffer before exposing it.
func GetPayload(n int) []byte {
	if n == 0 {
		return nil
	}
	for i := range payloadPools {
		if sz := 1 << (payloadMinShift + i); n <= sz {
			if v := payloadPools[i].Get(); v != nil {
				return unsafe.Slice(v.(*byte), sz)[:n]
			}
			return make([]byte, n, sz)
		}
	}
	return make([]byte, n)
}

// PutPayload returns a buffer drawn by GetPayload. Like putFrame it is
// cap-keyed: only exact class capacities re-enter the pool, so aliased
// sub-slices can never hand one allocation to two owners. Callers must
// not retain any reference after the Put (the standard pool contract);
// the ownership rule threaded through the transport is that a staged
// payload is released exactly once, by whoever holds it when its last
// use settles (flush-complete, stream close, or command completion).
func PutPayload(p []byte) {
	c := cap(p)
	if c < 1<<payloadMinShift || c > 1<<payloadMaxShift || c&(c-1) != 0 {
		return
	}
	payloadPools[bits.TrailingZeros(uint(c))-payloadMinShift].Put(unsafe.SliceData(p))
}

// SharedPayload is a pooled payload with several holders, for bytes that
// outlive the call that staged them: a daemon's write staging block is
// filled by the receive goroutine and read by the queued write; a
// replayed graph's write payload is read by the plan that caches it, by
// every ship or queued write still using it and by the delta coded
// against it. Each holder calls Drop once; the last Drop returns Data to
// the pool.
type SharedPayload struct {
	Data []byte
	refs atomic.Int32
}

// NewSharedPayload draws an n-byte payload with one holder, the caller.
func NewSharedPayload(n int) *SharedPayload {
	p := &SharedPayload{Data: GetPayload(n)}
	p.refs.Store(1)
	return p
}

// Hold adds a holder. Only a holder may call it.
func (p *SharedPayload) Hold() { p.refs.Add(1) }

// Drop removes a holder; it has the signature of a WriteOwned release.
func (p *SharedPayload) Drop() {
	switch n := p.refs.Add(-1); {
	case n == 0:
		PutPayload(p.Data)
	case n < 0:
		// The block may already be someone else's: nothing to salvage.
		panic("gcf: SharedPayload dropped by more holders than it had")
	}
}

// ErrClosed is returned for operations on a closed endpoint.
var ErrClosed = errors.New("gcf: endpoint closed")

// ErrTooLarge is returned by Send for a message over the frame limit:
// the one send failure that says nothing about the connection's health.
var ErrTooLarge = errors.New("gcf: message exceeds frame limit")

// ErrHeartbeatTimeout shuts an endpoint down when the peer went silent
// past the heartbeat deadline: the connection is still "open" at the
// transport level (nothing errored) but the link is effectively dead — a
// partition, a stalled path, a hung peer. Layers above treat it exactly
// like a broken connection (the server-down path), which is the point:
// a silent partition must not hang pipelined one-way sends forever.
var ErrHeartbeatTimeout = errors.New("gcf: heartbeat timeout")

// Handler consumes an inbound message. Handlers run sequentially on the
// endpoint's dispatch goroutine, preserving message order, and the close
// notice (Start) runs there after the last of them: a handler must never
// wait for its own connection's close, or for what only its notice does.
type Handler func(msg []byte)

// Endpoint is one end of a GCF connection.
type Endpoint struct {
	conn net.Conn

	// peer links the two halves of an in-process endpoint pair
	// (NewLocalPair): when non-nil, conn is nil and every frame takes the
	// local fast path in deliverLocal — no framing, no syscalls, no
	// write/read loops. See local.go.
	peer *Endpoint

	// Outbound frames are coalesced into a deferred-flush batch: headers
	// and small (copied) payloads are staged contiguously in wbuf, large
	// owned payloads are REFERENCED in place (writev-style scatter-
	// gather), and the write loop flushes whole batches with one
	// net.Buffers write. Under load (pipelined one-way enqueues) many
	// small frames ride in one syscall/packet; an idle connection still
	// sends each frame immediately, so no latency is added. Owned
	// payloads are never copied: the caller cedes the slice until the
	// flush completes (its release callback runs), which is what makes
	// the bulk path zero-copy end to end.
	wmu     sync.Mutex
	wcond   *sync.Cond
	wbuf    []byte // staging: headers + copied payloads
	wsegs   []wseg // ordered batch segments (wbuf ranges / owned refs)
	wpend   int    // queued bytes (headers + payloads), for backpressure
	wspare  []byte // flushed staging handed back for reuse
	wsegSp  []wseg // flushed segment slice handed back for reuse
	wbufsSp net.Buffers
	wrelSp  []func()
	werr    error
	wclosed bool
	wdone   chan struct{}

	streamMu sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32 // client: odd, server: even

	msgMu   sync.Mutex
	msgCond *sync.Cond
	msgs    [][]byte

	closed   atomic.Bool
	closeErr atomic.Value // error
	done     chan struct{}

	// lastRecv is the UnixNano timestamp of the most recent Read that
	// returned, whatever it carried — data, messages, heartbeats or part
	// of a frame. The heartbeat prober reads it to decide whether the
	// link is alive.
	lastRecv atomic.Int64
}

// NewEndpoint wraps conn. Client endpoints allocate odd stream IDs,
// servers even ones, so both sides may open streams without coordination.
func NewEndpoint(conn net.Conn, client bool) *Endpoint {
	e := &Endpoint{
		conn:    conn,
		streams: map[uint32]*Stream{},
		done:    make(chan struct{}),
		wdone:   make(chan struct{}),
	}
	if client {
		e.nextID = 1
	} else {
		e.nextID = 2
	}
	e.msgCond = sync.NewCond(&e.msgMu)
	e.wcond = sync.NewCond(&e.wmu)
	go e.writeLoop()
	return e
}

// Start launches the receive and dispatch loops. handler receives each
// inbound message; onClose (optional) is the close notice: it runs once, on
// the dispatch goroutine, after shutdown and the last queued message.
func (e *Endpoint) Start(handler Handler, onClose func(error)) {
	go e.dispatchLoop(handler, onClose)
	if e.peer == nil {
		// Local endpoints have no conn to read: the peer's deliverLocal
		// feeds the message queue and stream buffers directly.
		go e.readLoop()
	}
}

// Send transmits one message (channel-0 frame). It copies msg before it
// returns — into the staging buffer, or into the peer's queue on a local
// link — so the caller may reuse msg at once. It is safe for concurrent
// use.
func (e *Endpoint) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("%w (%d bytes)", ErrTooLarge, len(msg))
	}
	return e.writeFrame(msgChannel, msg)
}

// wseg is one segment of the outbound batch: either a contiguous range
// of the staging buffer (ext == nil) or a referenced owned payload.
type wseg struct {
	off, n  int
	ext     []byte
	release func()
}

// writeFrame queues one frame for the write loop, copying the payload
// into the staging buffer (small frames: messages, heartbeats, a
// stream's end). It blocks only for backpressure (the coalescing batch
// is full); actual transmission — and therefore transmission errors —
// happen asynchronously and surface as endpoint shutdown.
func (e *Endpoint) writeFrame(ch uint32, payload []byte) error {
	return e.queueFrame(ch, payload, false, nil, true)
}

// writeFrameOwned queues one frame REFERENCING payload instead of
// copying it (the writev-style deferred flush): the caller must not
// mutate payload until the frame is flushed. When queueFrame returns
// nil, release (if non-nil) is guaranteed to run exactly once — after
// the flush write, or during the shutdown drain; on error it never
// runs and ownership stays with the caller.
func (e *Endpoint) writeFrameOwned(ch uint32, payload []byte, release func()) error {
	return e.queueFrame(ch, payload, true, release, true)
}

func (e *Endpoint) queueFrame(ch uint32, payload []byte, owned bool, release func(), block bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.peer != nil {
		return e.deliverLocal(ch, payload, release)
	}
	e.wmu.Lock()
	if block {
		for e.wpend >= writeBufLimit && e.werr == nil && !e.wclosed {
			e.wcond.Wait()
		}
	}
	if e.werr != nil {
		err := e.werr
		e.wmu.Unlock()
		return err
	}
	if e.wclosed {
		e.wmu.Unlock()
		return ErrClosed
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], ch)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	start := len(e.wbuf)
	e.wbuf = append(e.wbuf, hdr[:]...)
	if owned && len(payload) > 0 {
		e.appendStagedLocked(start, 8)
		e.wsegs = append(e.wsegs, wseg{ext: payload, release: release})
	} else {
		// Small payloads ride in the staging buffer: the memcpy is cheaper
		// than an extra scatter-gather element, and the caller keeps
		// ownership of its slice immediately.
		e.wbuf = append(e.wbuf, payload...)
		e.appendStagedLocked(start, 8+len(payload))
		if release != nil {
			e.wsegs[len(e.wsegs)-1].release = release
		}
	}
	e.wpend += 8 + len(payload)
	e.wcond.Broadcast()
	e.wmu.Unlock()
	return nil
}

// appendStagedLocked records [start, start+n) of the staging buffer as
// batch data, merging with a preceding staged segment when contiguous
// (the common case: runs of small frames collapse to one writev element).
func (e *Endpoint) appendStagedLocked(start, n int) {
	if k := len(e.wsegs); k > 0 {
		if sg := &e.wsegs[k-1]; sg.ext == nil && sg.release == nil && sg.off+sg.n == start {
			sg.n += n
			return
		}
	}
	e.wsegs = append(e.wsegs, wseg{off: start, n: n})
}

// writeLoop drains the deferred-flush batch: whatever accumulated since
// the previous conn write goes out as one scatter-gather write
// (net.Buffers — a writev on real sockets). Batches form naturally while
// a write is in flight; an idle endpoint flushes every frame
// immediately. Owned payloads' release callbacks run after the batch is
// written (or dropped on error) — never before, so the "caller must not
// mutate until flush" contract has a precise end point.
func (e *Endpoint) writeLoop() {
	e.wmu.Lock()
	for {
		for e.wpend == 0 && !e.wclosed {
			e.wcond.Wait()
		}
		if e.wpend == 0 { // closed and fully drained
			e.wmu.Unlock()
			close(e.wdone)
			return
		}
		staging := e.wbuf
		segs := e.wsegs
		bufs := e.wbufsSp[:0]
		rels := e.wrelSp[:0]
		for _, sg := range segs {
			if sg.ext == nil {
				bufs = append(bufs, staging[sg.off:sg.off+sg.n])
			} else {
				bufs = append(bufs, sg.ext)
			}
			if sg.release != nil {
				rels = append(rels, sg.release)
			}
		}
		e.wbuf = e.wspare[:0]
		e.wspare = nil
		e.wsegs = e.wsegSp[:0]
		e.wsegSp = nil
		e.wpend = 0
		// The batch just emptied: wake backpressure waiters now so they
		// fill the next batch while this one is on the wire (otherwise a
		// single bulk producer would stall for each batch's transmission).
		e.wcond.Broadcast()
		e.wmu.Unlock()
		nb := bufs
		raceRelease()
		_, err := nb.WriteTo(e.conn)
		if err != nil {
			e.shutdown(err) // first: a release asks Closed if its frames left
		}
		// Flushed (or failed — the frames are gone either way): hand the
		// owned payloads back to their producers.
		for _, r := range rels {
			r()
		}
		// Drop payload references before recycling the scratch slices so a
		// parked connection does not pin released buffers.
		for i := range bufs {
			bufs[i] = nil
		}
		for i := range segs {
			segs[i] = wseg{}
		}
		for i := range rels {
			rels[i] = nil
		}
		e.wmu.Lock()
		// Ping-pong the batch buffers so a steady command stream runs
		// allocation-free; oversized batches (bulk-data bursts) are
		// dropped for the GC rather than pinned.
		if cap(staging) <= 1<<20 {
			e.wspare = staging[:0]
		}
		if cap(segs) <= 4096 {
			e.wsegSp = segs[:0]
		}
		if cap(bufs) <= 4096 {
			e.wbufsSp = bufs[:0]
		}
		if cap(rels) <= 4096 {
			e.wrelSp = rels[:0]
		}
		if err != nil {
			e.werr = err
			e.wclosed = true
			drain := e.wsegs
			e.wsegs = nil
			e.wbuf = nil
			e.wpend = 0
			e.wcond.Broadcast()
			e.wmu.Unlock()
			// Frames queued while the failing write was in flight will
			// never be sent; their owners still get their buffers back.
			for _, sg := range drain {
				if sg.release != nil {
					sg.release()
				}
			}
			close(e.wdone)
			return
		}
	}
}

// readBufSize is the receive buffer every socket endpoint reads through.
// A 4 KiB transfer frame and the command announcing it arrive in one
// Read; a maxFrame bulk frame copies at most this much of itself twice,
// the rest is read straight into its pooled frame.
const readBufSize = 16 << 10

// readBufPool recycles receive buffers across endpoints: a leased session
// builds and drops four endpoints, and 16 KiB each is not bookkeeping.
var readBufPool = sync.Pool{New: func() any { return new([readBufSize]byte) }}

// read fills p with at least min bytes from the connection. It is the one
// place the receive side touches the socket: the sender's happens-before
// edge (sync_race.go) and the liveness stamp are taken here, once per
// arriving batch and before any frame of it is published.
func (e *Endpoint) read(p []byte, min int) (int, error) {
	n, err := io.ReadAtLeast(e.conn, p, min)
	raceAcquire()
	e.lastRecv.Store(time.Now().UnixNano())
	return n, err
}

// messageBytes sums the message bodies among the whole frames b starts
// with: the size of the slab one batch's bodies are carved from.
func messageBytes(b []byte) (total int) {
	for len(b) >= 8 {
		n := binary.LittleEndian.Uint32(b[4:])
		if uint64(n) > uint64(len(b)-8) {
			break
		}
		if binary.LittleEndian.Uint32(b) == msgChannel {
			total += int(n)
		}
		b = b[8+n:]
	}
	return total
}

// publish moves the reader's parsed messages to the dispatch queue — one
// lock and one wake per batch — and returns the batch emptied.
func (e *Endpoint) publish(batch [][]byte) [][]byte {
	if len(batch) > 0 {
		e.msgMu.Lock()
		e.msgs = append(e.msgs, batch...)
		e.msgCond.Broadcast()
		e.msgMu.Unlock()
		clear(batch)
	}
	return batch[:0]
}

// readLoop receives frames and routes them to the message queue or to
// stream buffers, a batch per Read (see the package comment): every
// e.read below is preceded by a publish, because it can block and the
// peer may be waiting for the reply to a message parsed before it.
func (e *Endpoint) readLoop() {
	rb := readBufPool.Get().(*[readBufSize]byte)
	buf := rb[:]
	var (
		r, w  int      // buf[r:w] is received and not yet parsed
		batch [][]byte // messages parsed and not yet published
		slab  []byte   // backs the bodies of the messages buf[r:w] holds whole
		err   error
	)
	for {
		if w-r < 8 {
			batch = e.publish(batch)
			w, r = copy(buf, buf[r:w]), 0
			var n int
			n, err = e.read(buf[w:], 8-w)
			w += n
			if err != nil {
				break
			}
			// Bodies outlive the buffer, so they are copied out — into
			// one allocation per batch, not one per frame.
			slab = make([]byte, 0, messageBytes(buf[:w]))
		}
		ch := binary.LittleEndian.Uint32(buf[r:])
		size := binary.LittleEndian.Uint32(buf[r+4:])
		if size > maxFrame {
			err = fmt.Errorf("gcf: oversized frame (%d bytes)", size)
			break
		}
		r += 8
		n := int(size)
		held := min(n, w-r)
		var payload []byte
		pooled := ch != msgChannel && ch != hbChannel && n > 0
		switch {
		case pooled:
			payload = getFrame(n)
		case ch == msgChannel && held == n:
			payload = slab[len(slab) : len(slab)+n : len(slab)+n]
			slab = slab[:len(slab)+n]
		default:
			payload = make([]byte, n)
		}
		copy(payload, buf[r:r+held])
		r += held
		if held < n {
			// The rest of the payload goes straight to where it will
			// live, not through the buffer.
			batch = e.publish(batch)
			if _, err = e.read(payload[held:], n-held); err != nil {
				if pooled {
					putFrame(payload)
				}
				break
			}
		}
		switch ch {
		case hbChannel:
			// Answer pings so one probing side suffices; pongs (and any
			// malformed probe) are liveness evidence by arrival alone.
			// Non-blocking: the read loop must never park in outbound
			// backpressure, and a dropped pong just looks like one missed
			// probe to the peer.
			if n == 1 && payload[0] == hbPing {
				e.tryWriteFrame(hbChannel, []byte{hbPong})
			}
		case msgChannel:
			batch = append(batch, payload)
		default:
			s := e.Stream(ch)
			if n == 0 {
				s.closeRead(io.EOF)
			} else {
				s.push(payload)
			}
		}
	}
	e.publish(batch)
	readBufPool.Put(rb)
	e.shutdown(err)
}

// dispatchLoop hands queued messages to the handler in arrival order,
// taking everything queued in one swap: the slice it drained becomes the
// queue the reader appends to next; then, closed and drained, the notice.
func (e *Endpoint) dispatchLoop(handler Handler, onClose func(error)) {
	var batch [][]byte
	for {
		e.msgMu.Lock()
		for len(e.msgs) == 0 {
			if e.closed.Load() {
				e.msgMu.Unlock()
				<-e.done
				if onClose != nil {
					onClose(e.CloseErr())
				}
				return
			}
			e.msgCond.Wait()
		}
		batch, e.msgs = e.msgs, batch[:0]
		e.msgMu.Unlock()
		for i, msg := range batch {
			batch[i] = nil
			handler(msg)
		}
	}
}

// shutdown tears the endpoint down exactly once. Buffered outbound frames
// are given a bounded grace period to flush (an orderly close must not
// drop one-way requests queued just before it) before the connection is
// force-closed. The close notice runs later, on the dispatcher (Start).
func (e *Endpoint) shutdown(err error) {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if err == nil {
		err = ErrClosed
	}
	e.closeErr.Store(err)
	e.wmu.Lock()
	e.wclosed = true
	e.wcond.Broadcast()
	e.wmu.Unlock()
	// Only an orderly close gets the flush grace: when shutdown is driven
	// by a transport error the connection is already broken and waiting
	// would just stall failure delivery.
	if errors.Is(err, ErrClosed) {
		select {
		case <-e.wdone:
		case <-time.After(closeFlushTimeout):
		}
	}
	if e.conn != nil {
		e.conn.Close()
	}
	e.streamMu.Lock()
	for _, s := range e.streams {
		s.closeRead(err)
	}
	e.streamMu.Unlock()
	e.msgMu.Lock()
	e.msgCond.Broadcast()
	e.msgMu.Unlock()
	close(e.done)
	// An in-process link dies as a unit, like a conn close tearing down
	// both ends: the CAS above terminates the mutual recursion.
	if e.peer != nil {
		e.peer.shutdown(err)
	}
}

// StartHeartbeat probes the link every interval and shuts the endpoint
// down with ErrHeartbeatTimeout when no frame of any kind has arrived for
// longer than timeout. The peer needs no matching call: every endpoint
// answers pings automatically, and ordinary traffic counts as liveness
// (an endpoint mid-bulk-transfer never times out). A timeout shorter
// than two probe intervals is raised to that — otherwise an idle but
// healthy link could be declared dead before its first pong is even
// solicited. Call at most once, after Start.
func (e *Endpoint) StartHeartbeat(interval, timeout time.Duration) {
	if interval <= 0 || timeout <= 0 {
		return
	}
	if e.peer != nil {
		// A process-local link cannot silently partition: it is alive
		// exactly until one side calls Close, so probing is pointless.
		return
	}
	if timeout < 2*interval {
		timeout = 2 * interval
	}
	e.lastRecv.Store(time.Now().UnixNano())
	go func() {
		// Probe immediately so the idle check below always measures time
		// since a solicited pong had a chance to arrive, not since start.
		// Pings use the non-blocking write: a stalled link fills the
		// coalescing buffer, and a prober parked in backpressure could
		// never reach its own deadline check — the exact hang the
		// heartbeat exists to prevent.
		e.tryWriteFrame(hbChannel, []byte{hbPing})
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.done:
				return
			case <-t.C:
			}
			idle := time.Since(time.Unix(0, e.lastRecv.Load()))
			if idle > timeout {
				e.shutdown(ErrHeartbeatTimeout)
				return
			}
			e.tryWriteFrame(hbChannel, []byte{hbPing})
		}
	}()
}

// tryWriteFrame is writeFrame without the backpressure wait, for tiny
// control frames (heartbeats): it never blocks and ignores the
// coalescing-buffer limit — a 9-byte probe per interval cannot meaningfully
// grow the buffer, while honouring the limit would starve probes on a
// saturated (but healthy) link and dropping them would declare it dead.
// Returns false only when the endpoint is closing.
func (e *Endpoint) tryWriteFrame(ch uint32, payload []byte) bool {
	return e.queueFrame(ch, payload, false, nil, false) == nil
}

// Close terminates the connection.
func (e *Endpoint) Close() error {
	e.shutdown(ErrClosed)
	return nil
}

// Done is closed when the endpoint has shut down.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// Closed reports whether the endpoint has begun shutting down.
func (e *Endpoint) Closed() bool { return e.closed.Load() }

// CloseErr returns the error that shut the endpoint down (nil while it
// is still live).
func (e *Endpoint) CloseErr() error {
	err, _ := e.closeErr.Load().(error)
	return err
}

// OpenStream allocates a fresh stream ID owned by this side.
func (e *Endpoint) OpenStream() *Stream {
	e.streamMu.Lock()
	id := e.nextID
	e.nextID += 2
	s := e.getStreamLocked(id)
	e.streamMu.Unlock()
	return s
}

// Stream returns the stream with the given ID, creating it on first use
// (the peer announces stream IDs inside protocol messages).
func (e *Endpoint) Stream(id uint32) *Stream {
	e.streamMu.Lock()
	s := e.getStreamLocked(id)
	e.streamMu.Unlock()
	return s
}

func (e *Endpoint) getStreamLocked(id uint32) *Stream {
	s, ok := e.streams[id]
	if !ok {
		s = newStream(e, id)
		e.streams[id] = s
		// A stream resolved after shutdown must be born closed: the
		// dispatcher may handle a message announcing a stream whose data
		// frames died with the connection, and a reader of that stream
		// would otherwise block forever (shutdown's sweep has already
		// run).
		if e.closed.Load() {
			err, _ := e.closeErr.Load().(error)
			if err == nil {
				err = ErrClosed
			}
			s.closeRead(err)
		}
	}
	return s
}

// forget drops a finished stream so IDs can be garbage collected.
func (e *Endpoint) forget(id uint32) {
	e.streamMu.Lock()
	delete(e.streams, id)
	e.streamMu.Unlock()
}

// Stream is a bidirectional byte stream multiplexed over the endpoint.
type Stream struct {
	e  *Endpoint
	id uint32

	mu     sync.Mutex
	cond   *sync.Cond
	chunks []rchunk
	offset int
	rerr   error
}

// rchunk is one inbound chunk with explicit pool ownership: pooled
// chunks came from the frame pool and are returned on full consumption;
// non-pooled chunks (in-process handoffs of caller-owned slices) are
// never returned — the cap-sniffing this replaces could alias a foreign
// buffer into the pool. release (in-process WriteOwned hand-offs) fires
// exactly once when the chunk is consumed or the stream is torn down,
// handing the slice back to the writer.
type rchunk struct {
	p       []byte
	pooled  bool
	release func()
}

func newStream(e *Endpoint, id uint32) *Stream {
	s := &Stream{e: e, id: id}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ID returns the stream's channel ID (announced in protocol messages).
func (s *Stream) ID() uint32 { return s.id }

// push appends inbound data, a pooled frame the endpoint read loop hands
// over.
func (s *Stream) push(p []byte) {
	s.mu.Lock()
	s.chunks = append(s.chunks, rchunk{p: p, pooled: true})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// closeRead terminates the read side with err (io.EOF for orderly close).
// On an error close, undelivered in-process hand-off chunks are dropped
// and their releases fired: nobody may ever drain this stream, and a
// release parked forever would strand the writer's buffer — the local
// analogue of the write loop's shutdown drain. The chunk is removed
// before release runs (both under s.mu, which Read holds for its whole
// body), so the writer reusing the slice can never race a reader's copy.
// A partially-consumed head chunk stays readable and leaks its release
// to the GC instead — the reader is mid-copy through it across Read
// calls, so reclaiming it is never safe.
func (s *Stream) closeRead(err error) {
	s.mu.Lock()
	if s.rerr == nil {
		s.rerr = err
	}
	if err != io.EOF && len(s.chunks) > 0 {
		kept := s.chunks[:0]
		for i, c := range s.chunks {
			if c.release == nil || (i == 0 && s.offset > 0) {
				kept = append(kept, c)
				continue
			}
			c.release()
		}
		tail := s.chunks[len(kept):]
		for i := range tail {
			tail[i] = rchunk{}
		}
		s.chunks = kept
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Read reads stream data, returning io.EOF after the peer closed its
// write side and all data was consumed.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.chunks) == 0 {
		if s.rerr != nil {
			return 0, s.rerr
		}
		s.cond.Wait()
	}
	n := 0
	for n < len(p) && len(s.chunks) > 0 {
		c := s.chunks[0]
		m := copy(p[n:], c.p[s.offset:])
		n += m
		s.offset += m
		if s.offset == len(c.p) {
			s.chunks = s.chunks[1:]
			s.offset = 0
			if c.pooled {
				putFrame(c.p)
			}
			if c.release != nil {
				c.release()
			}
		}
	}
	return n, nil
}

// WriteOwned sends p on the stream zero-copy: the frames REFERENCE p
// until the deferred flush writes them, so the caller MUST NOT mutate p
// until release runs. release is called exactly once — after the last
// queued frame has been flushed (or dropped by endpoint shutdown) — and
// is where pooled payloads re-enter their pool. On a non-nil error the
// endpoint may still hold references to p until it finishes shutting
// down; ownership only returns to the caller via release, which still
// runs for every frame that was queued (a payload whose first frames
// were queued before the error is released by the shutdown drain).
func (s *Stream) WriteOwned(p []byte, release func()) error {
	if len(p) == 0 {
		if release != nil {
			release()
		}
		return nil
	}
	total := int32((len(p) + maxFrame - 1) / maxFrame)
	rel := release
	if release != nil && total > 1 {
		var done atomic.Int32
		rel = func() {
			if done.Add(1) == total {
				release()
			}
		}
	}
	sent, queued := 0, int32(0)
	for sent < len(p) {
		n := len(p) - sent
		if n > maxFrame {
			n = maxFrame
		}
		if err := s.e.writeFrameOwned(s.id, p[sent:sent+n], rel); err != nil {
			// Chunks never queued will never be flushed: account for them
			// here so release still fires once the queued ones drain (or
			// immediately when none were queued).
			if rel != nil && total > 1 {
				for i := queued; i < total; i++ {
					rel()
				}
			} else if release != nil && queued == 0 {
				release()
			}
			return err
		}
		queued++
		sent += n
	}
	return nil
}

// CloseWrite signals end-of-stream to the peer.
func (s *Stream) CloseWrite() error {
	return s.e.writeFrame(s.id, nil)
}

// WaitEOF consumes the stream until the peer's end-of-stream marker (or a
// transport error) has been processed. A receiver that knows the payload
// length must call this before Release: otherwise Release can race the
// trailing zero-length frame, which would silently re-create the
// forgotten stream in the endpoint's table and leak it.
func (s *Stream) WaitEOF() {
	var tmp [64]byte
	for {
		n, err := s.Read(tmp[:])
		if err != nil {
			return
		}
		if n == 0 {
			return
		}
		// Unexpected trailing data; keep discarding until EOF.
	}
}

// Release drops the local bookkeeping for the stream. Call after both
// sides are done with it. Unconsumed chunks are reclaimed here — pooled
// frames re-enter their pool and in-process hand-offs get their release
// callbacks — so an abandoned stream cannot strand writer buffers.
func (s *Stream) Release() {
	s.mu.Lock()
	chunks := s.chunks
	s.chunks = nil
	s.offset = 0
	// Stream IDs come off the wire, and two commands may have named this
	// one: a reader still parked here must not be left waiting for a
	// shutdown sweep that no longer finds a forgotten stream.
	if s.rerr == nil {
		s.rerr = ErrClosed
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, c := range chunks {
		if c.pooled {
			putFrame(c.p)
		}
		if c.release != nil {
			c.release()
		}
	}
	s.e.forget(s.id)
}
