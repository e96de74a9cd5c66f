// Package simnet provides an in-memory network with modeled bandwidth and
// latency: the stand-in for the Gigabit Ethernet and Infiniband fabrics of
// the paper's evaluation.
//
// Connections implement net.Conn, so every layer above (gcf transport,
// dOpenCL protocol, daemons) is oblivious to whether it runs over simnet
// or real TCP sockets. A link's bandwidth is enforced by pacing writers
// (serialization delay), latency by delaying the availability of data to
// the reader; both are compressed by a time-scale factor so that
// multi-second cluster experiments complete in milliseconds.
package simnet

import (
	"dopencl/internal/hrtime"

	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Limiter represents one physical wire as a reservation timeline: each
// transmission reserves an exclusive slot [freeAt, freeAt+delay) and the
// data becomes available to the receiver at the end of its slot. Links
// that share a Limiter (e.g. every client connection of one server NIC)
// contend for the same timeline, so their aggregate throughput is bounded
// by the link bandwidth. Deadline-based reservations need no sender-side
// sleeping, which keeps the model accurate even with coarse OS timers.
type Limiter struct {
	mu     sync.Mutex
	freeAt time.Time
}

// NewLimiter creates a shared wire.
func NewLimiter() *Limiter { return &Limiter{} }

// reserve books a transmission slot of the given duration and returns the
// slot's end (when the last byte is on the wire).
func (l *Limiter) reserve(d time.Duration) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if l.freeAt.Before(now) {
		l.freeAt = now
	}
	l.freeAt = l.freeAt.Add(d)
	return l.freeAt
}

// LinkConfig models one network link.
type LinkConfig struct {
	// BandwidthBps is the link bandwidth in bytes per second (0 = unlimited).
	BandwidthBps float64
	// LatencySec is the one-way propagation delay in seconds.
	LatencySec float64
	// TimeScale compresses modeled delays (0 = 1.0, real time).
	TimeScale float64
	// Shared, when set, serializes this link's transmissions with all
	// other links holding the same Limiter (a shared NIC or switch port).
	Shared *Limiter
	// SlowStartBytes models TCP slow start: after an idle period, the
	// first SlowStartBytes of a transmission run at SlowStartFactor of
	// the full bandwidth. Zero disables the ramp.
	SlowStartBytes int
	// SlowStartFactor is the bandwidth fraction during the ramp
	// (default 0.5 when SlowStartBytes > 0).
	SlowStartFactor float64
	// FailAfterBytes, when positive, breaks the link after roughly that
	// many bytes have been sent in one direction (a flaky-link fault for
	// failure-injection tests): the failing write errors and the peer's
	// read side sees the connection drop.
	FailAfterBytes int64
}

func (c LinkConfig) scale() float64 {
	if c.TimeScale <= 0 {
		return 1.0
	}
	return c.TimeScale
}

// GigabitEthernet returns the paper's Gigabit Ethernet link: 125 MB/s
// theoretical, with an effective application bandwidth around 106 MB/s
// (85% of theoretical, as the paper measured with iperf) and a TCP
// slow-start ramp that penalizes short transfers (the falling left side
// of the Fig. 8 efficiency curve).
func GigabitEthernet(scale float64) LinkConfig {
	return LinkConfig{
		BandwidthBps:    106e6,
		LatencySec:      100e-6,
		TimeScale:       scale,
		SlowStartBytes:  512 << 10,
		SlowStartFactor: 0.5,
	}
}

// Infiniband returns an Infiniband-class link as used by the Fig. 4
// cluster (bandwidth comparable to PCIe, microsecond latency).
func Infiniband(scale float64) LinkConfig {
	return LinkConfig{BandwidthBps: 3.2e9, LatencySec: 2e-6, TimeScale: scale}
}

// Unlimited returns a link without bandwidth or latency modeling, used by
// unit tests.
func Unlimited() LinkConfig { return LinkConfig{} }

// chunk is a unit of in-flight data.
type chunk struct {
	data  []byte
	ready time.Time
}

// rampResetIdle is the modeled idle period after which the slow-start
// ramp re-arms (a TCP connection going idle loses its congestion window).
const rampResetIdle = 50 * time.Millisecond

// pairFaults is the shared fault state of one DIRECTED endpoint pair:
// every connection between the pair consults it on each write, so faults
// injected at the network level hit live connections, not just future
// dials. It is the substrate the chaos harness drives — severed links,
// silent stalls (a large standing extra delay) and one-shot delay spikes
// that fire when the pair's cumulative byte count crosses an offset.
type pairFaults struct {
	severed atomic.Bool
	// extraNS is a standing extra one-way delay in nanoseconds applied to
	// every chunk (models a stalled or degraded path; the connection stays
	// open, which is what heartbeat detection exists for).
	extraNS atomic.Int64
	// One-shot delay spike: when cumulative bytes cross spikeAt, the
	// crossing chunk (and only it) is delayed by spikeNS extra.
	bytes   atomic.Int64
	spikeAt atomic.Int64
	spikeNS atomic.Int64
}

// spikeDelay advances the pair's byte count by n and returns the extra
// delay the crossing chunk suffers (0 in the common case).
func (f *pairFaults) spikeDelay(n int) time.Duration {
	total := f.bytes.Add(int64(n))
	extra := time.Duration(f.extraNS.Load())
	at := f.spikeAt.Load()
	if at > 0 && total >= at && total-int64(n) < at {
		if f.spikeAt.CompareAndSwap(at, 0) {
			extra += time.Duration(f.spikeNS.Load())
		}
	}
	return extra
}

// half is one direction of a pipe.
type half struct {
	mu      sync.Mutex
	cond    *sync.Cond
	chunks  []chunk
	offset  int // read offset into chunks[0]
	closed  bool
	aborted bool          // hard close: in-flight chunks dropped, reads error
	sig     chan struct{} // closed+replaced on close/abort; wakes delay waits

	wire      *Limiter // shared or private reservation timeline
	cfg       LinkConfig
	rampMu    sync.Mutex
	rampLeft  int       // slow-start bytes remaining at reduced bandwidth
	lastReady time.Time // end of the previous reservation (ramp reset)

	sent   atomic.Int64  // bytes accepted in this direction (fault budget)
	stats  *atomic.Int64 // optional network-level byte counter
	faults *pairFaults   // optional network-level fault injection
}

func newHalf(cfg LinkConfig) *half {
	h := &half{cfg: cfg, rampLeft: cfg.SlowStartBytes, sig: make(chan struct{})}
	h.wire = cfg.Shared
	if h.wire == nil {
		h.wire = NewLimiter()
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// transmissionDelay computes the wire occupancy for n bytes, advancing the
// slow-start ramp.
func (h *half) transmissionDelay(n int) time.Duration {
	if h.cfg.BandwidthBps <= 0 {
		return 0
	}
	scale := h.cfg.scale()
	h.rampMu.Lock()
	if h.cfg.SlowStartBytes > 0 && !h.lastReady.IsZero() {
		idle := time.Duration(float64(time.Since(h.lastReady)) / scale)
		if idle > rampResetIdle {
			h.rampLeft = h.cfg.SlowStartBytes
		}
	}
	var sec float64
	if h.rampLeft > 0 {
		factor := h.cfg.SlowStartFactor
		if factor <= 0 {
			factor = 0.5
		}
		ramped := n
		if ramped > h.rampLeft {
			ramped = h.rampLeft
		}
		h.rampLeft -= ramped
		n -= ramped
		sec += float64(ramped) / (h.cfg.BandwidthBps * factor)
	}
	h.rampMu.Unlock()
	sec += float64(n) / h.cfg.BandwidthBps
	return time.Duration(sec * float64(time.Second) * scale)
}

// send reserves wire time for p and enqueues it with the resulting
// availability deadline; the receiver enforces the deadline. The sender
// never sleeps, so coarse OS timers cannot distort throughput.
func (h *half) send(p []byte) (int, error) {
	if h.isClosed() {
		return 0, io.ErrClosedPipe
	}
	if h.faults != nil && h.faults.severed.Load() {
		h.abort()
		return 0, io.ErrClosedPipe
	}
	if h.cfg.FailAfterBytes > 0 {
		already := h.sent.Load()
		if already >= h.cfg.FailAfterBytes {
			h.close()
			return 0, io.ErrClosedPipe
		}
		if budget := h.cfg.FailAfterBytes - already; int64(len(p)) > budget {
			// Flaky-link fault: the budget runs out inside this write.
			// Deliver the prefix that fit, then drop the link, so the
			// peer's reader observes a mid-transfer truncation exactly as
			// a broken socket would produce.
			h.sent.Add(budget)
			if h.stats != nil {
				h.stats.Add(budget)
			}
			if _, err := h.deliver(p[:budget]); err == nil {
				h.close()
			}
			return 0, io.ErrClosedPipe
		}
	}
	h.sent.Add(int64(len(p)))
	if h.stats != nil {
		h.stats.Add(int64(len(p)))
	}
	return h.deliver(p)
}

// deliver reserves wire time for p and enqueues it (the fault-free tail
// of send).
func (h *half) deliver(p []byte) (int, error) {
	slotEnd := h.wire.reserve(h.transmissionDelay(len(p)))
	h.rampMu.Lock()
	h.lastReady = slotEnd
	h.rampMu.Unlock()
	ready := slotEnd.Add(time.Duration(h.cfg.LatencySec * float64(time.Second) * h.cfg.scale()))
	if h.faults != nil {
		ready = ready.Add(h.faults.spikeDelay(len(p)))
	}
	buf := make([]byte, len(p))
	copy(buf, p)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	h.chunks = append(h.chunks, chunk{data: buf, ready: ready})
	h.cond.Broadcast()
	h.mu.Unlock()
	return len(p), nil
}

func (h *half) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// recv reads available data into p, honouring chunk readiness times.
func (h *half) recv(p []byte) (int, error) {
	// Sub-threshold waits are treated as ready: OS timer granularity would
	// otherwise dominate fine-grained latencies. Waits beyond the
	// interruptible threshold use a coarse timer racing the half's signal
	// channel instead of an unconditional sleep — a reader parked behind a
	// long-delayed chunk (a stalled-path fault) must still observe its
	// connection being torn down, not sleep out the full modeled delay.
	const (
		readyThreshold    = 200 * time.Microsecond
		interruptibleWait = 10 * time.Millisecond
	)
	h.mu.Lock()
	for {
		if h.aborted {
			h.mu.Unlock()
			return 0, io.ErrClosedPipe
		}
		if len(h.chunks) > 0 {
			c := h.chunks[0]
			wait := time.Until(c.ready)
			if wait <= readyThreshold {
				break
			}
			if wait <= interruptibleWait {
				// Short waits keep the precise spin sleep: an abort racing
				// in is only delayed by a few milliseconds.
				h.mu.Unlock()
				hrtime.SleepUntil(c.ready)
				h.mu.Lock()
				continue
			}
			sig := h.sig
			h.mu.Unlock()
			t := time.NewTimer(wait - interruptibleWait/2)
			select {
			case <-sig:
			case <-t.C:
			}
			t.Stop()
			h.mu.Lock()
			continue
		}
		if h.closed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	n := 0
	for n < len(p) && len(h.chunks) > 0 {
		c := &h.chunks[0]
		if time.Until(c.ready) > readyThreshold && n > 0 {
			break
		}
		m := copy(p[n:], c.data[h.offset:])
		n += m
		h.offset += m
		if h.offset == len(c.data) {
			h.chunks = h.chunks[1:]
			h.offset = 0
		}
	}
	h.mu.Unlock()
	return n, nil
}

// close marks the half closed and wakes blocked readers. Chunks already
// on the wire are still delivered at their ready time before EOF (a
// graceful close flushes, like TCP).
func (h *half) close() {
	h.mu.Lock()
	h.closed = true
	h.bumpLocked()
	h.cond.Broadcast()
	h.mu.Unlock()
}

// abort hard-closes the half, the cable-pull flavour: in-flight chunks
// are dropped and a blocked reader wakes immediately with an error, even
// if it was waiting out a long modeled (or fault-injected) delay.
func (h *half) abort() {
	h.mu.Lock()
	h.aborted = true
	h.closed = true
	h.chunks = nil
	h.offset = 0
	h.bumpLocked()
	h.cond.Broadcast()
	h.mu.Unlock()
}

// bumpLocked wakes delay-waiting readers. Callers hold h.mu. The channel
// is replaced each time so a woken reader that keeps waiting (graceful
// close with chunks still in flight) blocks on a fresh signal instead of
// spinning on the closed one.
func (h *half) bumpLocked() {
	close(h.sig)
	h.sig = make(chan struct{})
}

// Addr is a simnet address.
type Addr string

// Network implements net.Addr.
func (a Addr) Network() string { return "simnet" }

// String returns the address text.
func (a Addr) String() string { return string(a) }

// Conn is one endpoint of a simnet pipe.
type Conn struct {
	in, out       *half
	local, remote Addr
	closeOnce     sync.Once
}

var _ net.Conn = (*Conn)(nil)

// Pipe creates a connected pair of endpoints with the link model applied
// in both directions.
func Pipe(cfg LinkConfig) (*Conn, *Conn) {
	return NamedPipe(cfg, "simnet-a", "simnet-b")
}

// NamedPipe is Pipe with explicit endpoint addresses.
func NamedPipe(cfg LinkConfig, a, b string) (*Conn, *Conn) {
	ab := newHalf(cfg)
	ba := newHalf(cfg)
	ca := &Conn{in: ba, out: ab, local: Addr(a), remote: Addr(b)}
	cb := &Conn{in: ab, out: ba, local: Addr(b), remote: Addr(a)}
	return ca, cb
}

// Read reads data from the connection.
func (c *Conn) Read(p []byte) (int, error) { return c.in.recv(p) }

// Write writes data to the connection, paced by the link's bandwidth.
func (c *Conn) Write(p []byte) (int, error) { return c.out.send(p) }

// Close closes both directions. Data already on the wire still reaches
// the peer (graceful close).
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.in.close()
		c.out.close()
	})
	return nil
}

// abort hard-closes both directions: in-flight data is lost and blocked
// readers on either end wake immediately. Fault injection (Sever,
// SeverNode) uses this — a crashed node's in-flight responses must not
// be delivered, nor strand a reader waiting out their modeled delay.
func (c *Conn) abort() {
	c.in.abort()
	c.out.abort()
}

// LocalAddr returns the local endpoint address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the remote endpoint address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline is accepted but not enforced (simnet is used in-process
// where cancellation happens by closing the connection).
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline is accepted but not enforced.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline is accepted but not enforced.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// Network is an in-memory address space mapping addresses to listeners.
// Links can be configured per destination (SetLink) or per directed node
// pair (SetLinkBetween), modeling multi-node topologies with independent
// per-link latency and bandwidth; every link counts the bytes it carries
// per direction (BytesSent), so tests can assert which path a payload
// actually travelled.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*Listener
	links     map[string]LinkConfig
	pairLinks map[[2]string]LinkConfig
	stats     map[[2]string]*atomic.Int64
	faults    map[[2]string]*pairFaults
	conns     map[[2]string][]*Conn // live conns per directed (caller, addr) pair
	def       LinkConfig
}

// NewNetwork creates a network whose dials use the given default link.
func NewNetwork(def LinkConfig) *Network {
	return &Network{
		listeners: map[string]*Listener{},
		links:     map[string]LinkConfig{},
		pairLinks: map[[2]string]LinkConfig{},
		stats:     map[[2]string]*atomic.Int64{},
		faults:    map[[2]string]*pairFaults{},
		conns:     map[[2]string][]*Conn{},
		def:       def,
	}
}

// SetLink overrides the link model used when dialing addr.
func (n *Network) SetLink(addr string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[addr] = cfg
}

// SetLinkBetween overrides the link model for dials from the named
// endpoint `from` (the caller identity passed to DialFrom) to addr. It
// takes precedence over SetLink and the network default, enabling
// asymmetric topologies (fast daemon↔daemon fabric, slow client uplink).
func (n *Network) SetLinkBetween(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pairLinks[[2]string{from, to}] = cfg
}

// statsFor returns the byte counter for the directed pair, creating it
// on first use. Callers hold n.mu.
func (n *Network) statsFor(from, to string) *atomic.Int64 {
	key := [2]string{from, to}
	c, ok := n.stats[key]
	if !ok {
		c = &atomic.Int64{}
		n.stats[key] = c
	}
	return c
}

// faultsFor returns the fault state for the directed pair, creating it on
// first use. Callers hold n.mu.
func (n *Network) faultsFor(from, to string) *pairFaults {
	key := [2]string{from, to}
	f, ok := n.faults[key]
	if !ok {
		f = &pairFaults{}
		n.faults[key] = f
	}
	return f
}

// Sever breaks the link between the two named endpoints in both
// directions: every live connection between them drops (writers error,
// readers see the connection die) and new dials are refused until Heal.
// Like a real cable pull, connections severed while the fault is active
// stay dead after Heal — only fresh dials succeed.
func (n *Network) Sever(a, b string) {
	n.mu.Lock()
	n.faultsFor(a, b).severed.Store(true)
	n.faultsFor(b, a).severed.Store(true)
	var victims []*Conn
	for _, key := range [][2]string{{a, b}, {b, a}} {
		victims = append(victims, n.conns[key]...)
		delete(n.conns, key)
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.abort()
	}
}

// Heal clears a Sever between the two endpoints: new dials succeed again.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	n.faultsFor(a, b).severed.Store(false)
	n.faultsFor(b, a).severed.Store(false)
	n.mu.Unlock()
}

// SeverNode isolates one endpoint: every live connection it participates
// in (as dialer or listener) drops, and dials to or from it are refused
// until HealNode. The chaos harness uses it to model a daemon crash.
// Node-level severs are tracked separately from pairwise Sever faults,
// so HealNode never silently re-opens a link a test cut with Sever(a,b).
func (n *Network) SeverNode(addr string) {
	n.mu.Lock()
	var victims []*Conn
	for key, cs := range n.conns {
		if key[0] == addr || key[1] == addr {
			victims = append(victims, cs...)
			delete(n.conns, key)
		}
	}
	// The node-level flag lives on the wildcard pair only (checked in
	// DialFrom for any pair involving addr); pairwise flags stay
	// untouched. Live conns are closed above, so no per-half flag is
	// needed to stop their traffic.
	n.faultsFor(addr, "*").severed.Store(true)
	n.mu.Unlock()
	for _, c := range victims {
		c.abort()
	}
}

// HealNode clears a SeverNode: dials involving addr succeed again
// (pairwise Sever faults, if any, keep their own state).
func (n *Network) HealNode(addr string) {
	n.mu.Lock()
	n.faultsFor(addr, "*").severed.Store(false)
	n.mu.Unlock()
}

// nodeSeveredLocked reports whether either endpoint is node-severed.
func (n *Network) nodeSeveredLocked(a, b string) bool {
	for _, x := range []string{a, b} {
		if f, ok := n.faults[[2]string{x, "*"}]; ok && f.severed.Load() {
			return true
		}
	}
	return false
}

// SetExtraDelay adds a standing extra one-way delay to every chunk sent
// from the named endpoint toward addr (0 clears it). The connection stays
// open — this models a silently degraded or stalled path, the failure
// mode heartbeats exist to detect.
func (n *Network) SetExtraDelay(from, to string, d time.Duration) {
	n.mu.Lock()
	n.faultsFor(from, to).extraNS.Store(int64(d))
	n.mu.Unlock()
}

// InjectDelayAt arms a one-shot delay spike on the directed pair: the
// chunk whose transmission crosses the given cumulative byte offset
// (counted from now across all connections of the pair) is delayed by
// extra on top of the modeled link.
func (n *Network) InjectDelayAt(from, to string, atBytes int64, extra time.Duration) {
	n.mu.Lock()
	f := n.faultsFor(from, to)
	n.mu.Unlock()
	f.spikeNS.Store(int64(extra))
	f.spikeAt.Store(f.bytes.Load() + atBytes)
}

// BytesSent reports how many bytes have been sent from the named
// endpoint toward addr across all connections between the two (frame
// payloads as written, before latency/bandwidth modeling).
func (n *Network) BytesSent(from, to string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.stats[[2]string{from, to}]; ok {
		return c.Load()
	}
	return 0
}

// Shutdown closes every live connection and every listener on the
// network. Tests and benchmarks use it to tear a whole cluster down:
// closing the transport unwinds gcf endpoints, daemon sessions and
// heartbeat probers, so goroutines leaked by one run cannot steal CPU
// (or spin-sleep cycles) from the next run on the same process.
func (n *Network) Shutdown() {
	n.mu.Lock()
	var victims []*Conn
	for key, cs := range n.conns {
		victims = append(victims, cs...)
		delete(n.conns, key)
	}
	ls := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		ls = append(ls, l)
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	// Listener.Close re-acquires n.mu to unregister, so it must run
	// outside the lock above.
	for _, l := range ls {
		l.Close()
	}
}

// Listen registers a listener at addr.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("simnet: address %s already in use", addr)
	}
	l := &Listener{addr: Addr(addr), net: n, accept: make(chan *Conn, 16)}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener at addr using the configured link model.
func (n *Network) Dial(addr string) (net.Conn, error) {
	return n.DialFrom("", addr)
}

// DialFrom is Dial with an explicit caller identity: the connection uses
// the link configured between from and addr (falling back to SetLink and
// then the network default), and its traffic is accounted under that
// directed pair. Daemons dialing peers pass their own address so the
// daemon↔daemon fabric can differ from the client uplinks.
func (n *Network) DialFrom(from, addr string) (net.Conn, error) {
	caller := from
	if caller == "" {
		caller = "client:" + addr
	}
	n.mu.Lock()
	l, ok := n.listeners[addr]
	cfg, hasLink := n.pairLinks[[2]string{from, addr}]
	if !hasLink {
		cfg, hasLink = n.links[addr]
	}
	if !hasLink {
		cfg = n.def
	}
	fwd := n.statsFor(caller, addr)
	rev := n.statsFor(addr, caller)
	ffwd := n.faultsFor(caller, addr)
	frev := n.faultsFor(addr, caller)
	severed := ffwd.severed.Load() || frev.severed.Load() || n.nodeSeveredLocked(caller, addr)
	n.mu.Unlock()
	if !ok || severed {
		return nil, fmt.Errorf("simnet: connection refused: %s", addr)
	}
	client, server := NamedPipe(cfg, caller, addr)
	client.out.stats = fwd
	server.out.stats = rev
	client.out.faults = ffwd
	server.out.faults = frev
	if !l.offer(server) {
		client.Close()
		server.Close()
		return nil, fmt.Errorf("simnet: connection refused or accept queue full: %s", addr)
	}
	n.mu.Lock()
	// Re-check under the registration lock: a SeverNode that ran
	// between the dial check and here must not leave this conn alive
	// and untracked.
	if ffwd.severed.Load() || frev.severed.Load() || n.nodeSeveredLocked(caller, addr) {
		n.mu.Unlock()
		client.Close()
		server.Close()
		return nil, fmt.Errorf("simnet: connection refused: %s", addr)
	}
	key := [2]string{caller, addr}
	n.conns[key] = append(n.conns[key], client)
	// Bound the registry: closed conns are pruned lazily here rather
	// than on every Close (Close is on the data path).
	if len(n.conns[key]) > 8 {
		kept := n.conns[key][:0]
		for _, c := range n.conns[key] {
			if !c.in.isClosed() || !c.out.isClosed() {
				kept = append(kept, c)
			}
		}
		n.conns[key] = kept
	}
	n.mu.Unlock()
	return client, nil
}

// Listener accepts simnet connections.
type Listener struct {
	addr   Addr
	net    *Network
	accept chan *Conn

	// mu orders a dial's hand-off against Close: a dialer that found the
	// listener registered may reach it after Close unregistered it, and
	// must then be refused rather than send on the closed channel.
	mu     sync.Mutex
	closed bool
}

// offer queues an inbound connection for Accept. It reports false when
// the listener is closed or its queue is full.
func (l *Listener) offer(c *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	select {
	case l.accept <- c:
		return true
	default:
		return false
	}
}

var _ net.Listener = (*Listener)(nil)

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	c, ok := <-l.accept
	if !ok {
		return nil, fmt.Errorf("simnet: listener %s closed", l.addr)
	}
	return c, nil
}

// Close unregisters the listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.net.mu.Lock()
	delete(l.net.listeners, string(l.addr))
	l.net.mu.Unlock()
	close(l.accept)
	return nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.addr }
