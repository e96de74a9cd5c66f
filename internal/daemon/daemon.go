// Package daemon implements the dOpenCL daemon (Section III-B of the
// paper): a server process that exposes its node's OpenCL devices over the
// network. The daemon accepts client-driver connections, maintains tables
// mapping client-assigned object IDs to native OpenCL objects, executes
// forwarded API calls against the node's native runtime and pushes event
// notifications back to clients.
//
// In managed mode (Section IV-A) the daemon registers its devices with a
// central device manager and only exposes to each client the devices the
// manager assigned to that client's lease (authentication ID).
package daemon

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/serve"
)

// Config configures a daemon.
type Config struct {
	// Name identifies the server (defaults to "dcld").
	Name string
	// Platform is the node's native OpenCL implementation.
	Platform cl.Platform
	// Managed enables device-manager mode: clients only see devices
	// assigned to their authentication ID.
	Managed bool
	// PeerAddr is the address other daemons use to reach this daemon's
	// peer data plane (ServePeers listener). Empty disables inbound
	// forwarding; clients then fall back to client-mediated transfers.
	PeerAddr string
	// PeerDial reaches other daemons' peer data planes for outbound
	// buffer forwarding. Nil disables outbound forwarding.
	PeerDial func(addr string) (net.Conn, error)
	// SessionRetain keeps a disconnected client's session state (contexts,
	// buffers, programs, kernels, queues, cached graphs) alive for this
	// long after the connection dies, so the client can re-attach with a
	// Hello that resumes it and find its objects — and their data —
	// intact. A refused resume does not extend the window. Zero tears
	// sessions down immediately on disconnect.
	SessionRetain time.Duration
	// ServeWindow is the serve plane's coalescing window: after popping a
	// batch leader the dispatcher waits this long for concurrent
	// submitters before harvesting compatible jobs into the dispatch.
	// Zero dispatches immediately (coalescing still happens whenever
	// submissions outpace dispatch).
	ServeWindow time.Duration
	// ServeMaxBatch caps how many serve jobs one coalesced dispatch may
	// carry (0 means 64).
	ServeMaxBatch int
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Daemon is a dOpenCL server.
type Daemon struct {
	cfg     Config
	devices []cl.Device

	mu     sync.Mutex
	leases map[string]map[uint32]bool // authID → permitted unit IDs

	// Manager connections (managed mode). A daemon in a sharded control
	// plane holds one link per shard that owns any of its devices; lease
	// invalidation reports broadcast to all of them (shards ignore auth
	// IDs they don't hold).
	dmMu sync.Mutex
	dms  map[*rpc.Conn]bool
	cp   atomic.Pointer[controlPlane] // set by JoinControlPlane

	// graphCount tracks cached command graphs across all sessions, for
	// observability and the session-teardown hygiene tests.
	graphCount atomic.Int64

	// Session registry: every client session gets a daemon-issued ID; a
	// session whose connection died is parked (detached) for SessionRetain
	// before its resources are released, and a Hello that resumes it
	// within that window adopts its object tables onto the new connection.
	// keys finds a live connection by its peer key, for the payloads peers
	// forward to it.
	sessMu   sync.Mutex
	sessions map[uint64]*session
	keys     map[uint64]*session

	// peers is the outbound peer-connection pool (nil: no forwarding).
	peers *gcf.Pool

	// Serve plane (serve.go): the daemon-wide fair queue of pending serve
	// jobs, the content-addressed result cache for buffer-free jobs, and
	// the dispatcher that coalesces compatible jobs into batched VM
	// dispatches. The dispatcher goroutine starts on the first ServeOpen.
	serveQ          *serve.FairQueue[serveGroup, *serveJob]
	serveCache      *serve.Cache
	serveOnce       sync.Once
	serveLaneSeq    atomic.Uint64
	serveSubmitted  atomic.Int64
	serveDispatches atomic.Int64
	serveBatched    atomic.Int64
	serveCacheHits  atomic.Int64
}

// New creates a daemon exposing the platform's devices.
func New(cfg Config) (*Daemon, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("daemon: config requires a platform")
	}
	if cfg.Name == "" {
		cfg.Name = "dcld"
	}
	devs, err := cfg.Platform.Devices(cl.DeviceTypeAll)
	if err != nil {
		return nil, fmt.Errorf("daemon: enumerating devices: %w", err)
	}
	d := &Daemon{
		cfg:        cfg,
		devices:    devs,
		leases:     map[string]map[uint32]bool{},
		dms:        map[*rpc.Conn]bool{},
		sessions:   map[uint64]*session{},
		keys:       map[uint64]*session{},
		serveQ:     serve.NewFairQueue[serveGroup, *serveJob](),
		serveCache: serve.NewCache(0, 0),
	}
	if cfg.PeerDial != nil {
		d.peers = gcf.NewPool(cfg.PeerDial, d.peerHello)
	}
	return d, nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// logUnserved reports, once per message type, the frames a connection
// that just ended had dropped: sent in a class this daemon does not serve
// them in, or with a body it could not decode. Nobody was answered about
// them, so this line is the only trace of a confused or hostile peer.
func (d *Daemon) logUnserved(link string, c *rpc.Conn) {
	for typ, n := range c.Unserved() {
		d.logf("daemon %s: %s dropped %d unserved or malformed %s frame(s)", d.cfg.Name, link, n, typ)
	}
}

// Name returns the daemon's server name.
func (d *Daemon) Name() string { return d.cfg.Name }

// CachedGraphs reports the number of command graphs currently cached
// across all sessions (session teardown must return it to zero).
func (d *Daemon) CachedGraphs() int { return int(d.graphCount.Load()) }

// Devices returns all devices hosted by this daemon.
func (d *Daemon) Devices() []cl.Device { return d.devices }

// Records builds the protocol device records for all local devices.
func (d *Daemon) Records() []protocol.DeviceRecord {
	recs := make([]protocol.DeviceRecord, len(d.devices))
	for i, dev := range d.devices {
		recs[i] = protocol.DeviceRecord{UnitID: uint32(i), Info: dev.Info()}
	}
	return recs
}

// visibleRecords filters device records by the client's lease in managed
// mode; unmanaged daemons expose everything.
func (d *Daemon) visibleRecords(authID string) ([]protocol.DeviceRecord, error) {
	if !d.cfg.Managed {
		return d.Records(), nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	allowed, ok := d.leases[authID]
	if !ok {
		return nil, cl.Errf(cl.InvalidServer, "authentication ID rejected by managed server %s", d.cfg.Name)
	}
	var recs []protocol.DeviceRecord
	for i, dev := range d.devices {
		if allowed[uint32(i)] {
			recs = append(recs, protocol.DeviceRecord{UnitID: uint32(i), Info: dev.Info()})
		}
	}
	return recs, nil
}

// device returns unit u's device if a session bound to authID may use it:
// on an unmanaged daemon every unit, on a managed one the units of
// authID's lease — none once it is revoked, and none for a session that
// has not bound itself with a Hello. It reads the lease table at each
// create, so a Revoke takes the units from exactly the sessions still
// bound to that lease.
func (d *Daemon) device(authID string, u uint64) cl.Device {
	if u >= uint64(len(d.devices)) {
		return nil
	}
	if d.cfg.Managed {
		d.mu.Lock()
		ok := d.leases[authID][uint32(u)]
		d.mu.Unlock()
		if !ok {
			return nil
		}
	}
	return d.devices[u]
}

// Allow grants authID access to the given device units (device-manager
// assignment, step 3b of Fig. 2). On a managed daemon the grant must be
// bound by a session within the bind window, or it is given back.
func (d *Daemon) Allow(authID string, units []uint32) {
	d.mu.Lock()
	set, ok := d.leases[authID]
	if !ok {
		set = map[uint32]bool{}
		d.leases[authID] = set
	}
	for _, u := range units {
		set[u] = true
	}
	d.mu.Unlock()
	if d.cfg.Managed {
		time.AfterFunc(d.bindWindow(), func() { d.expireUnbound(authID) })
	}
}

// defaultBindWindow is the bind window when Config.SessionRetain is
// unset: dcld's -session-retain default.
const defaultBindWindow = 30 * time.Second

// bindWindow is how long a granted lease may wait for a session to bind
// it: as long as a detached session waits for its client.
func (d *Daemon) bindWindow() time.Duration {
	if d.cfg.SessionRetain > 0 {
		return d.cfg.SessionRetain
	}
	return defaultBindWindow
}

// expireUnbound gives back a lease no session has bound by the end of its
// bind window, as a close gives back a bound one: its client died between
// the grant and its Hello, and nothing else would release its devices.
func (d *Daemon) expireUnbound(authID string) {
	if !d.HasLease(authID) || d.leaseBound(authID) {
		return
	}
	d.Revoke(authID)
	d.reportInvalidatedLease(authID, nil)
	d.logf("daemon %s: lease %s unbound after %s, given back", d.cfg.Name, authID, d.bindWindow())
}

// leaseBound reports whether a session, attached or parked, is bound to
// authID.
func (d *Daemon) leaseBound(authID string) bool {
	d.sessMu.Lock()
	sessions := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.sessMu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		bound := s.authID == authID
		s.mu.Unlock()
		if bound {
			return true
		}
	}
	return false
}

// Revoke invalidates an authentication ID: sessions bound to it can create
// nothing on its units any more, and sessions bound to another lease are
// untouched.
func (d *Daemon) Revoke(authID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, authID)
}

// HasLease reports whether authID currently holds a lease on this server.
func (d *Daemon) HasLease(authID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.leases[authID]
	return ok
}

// Serve accepts client connections until the listener closes.
func (d *Daemon) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		d.ServeConn(conn)
	}
}

// ServeConn runs one client session on conn (non-blocking; the session
// lives on the endpoint's goroutines).
func (d *Daemon) ServeConn(conn net.Conn) {
	s := newSession(d, gcf.NewEndpoint(conn, false))
	s.start()
}

// ServeLocal publishes the daemon as an in-process server at addr:
// clients in the same process dialing that address connect through
// gcf's local endpoint pair — no sockets, no frame serialization, bulk
// payloads handed across as slices (the in-process fast path). Sessions
// created this way are indistinguishable from socket sessions to the
// rest of the daemon. Returns an error when addr is already registered.
func (d *Daemon) ServeLocal(addr string) error {
	return gcf.RegisterLocal(addr, func(server *gcf.Endpoint) {
		newSession(d, server).start()
	})
}

// StopLocal withdraws a ServeLocal registration. Live sessions continue.
func (d *Daemon) StopLocal(addr string) {
	gcf.UnregisterLocal(addr)
}

// registerSession issues a session ID and a peer key and records the
// session under both. Both are cryptographically random, not sequential:
// a resuming Hello authenticates by session ID, so a guessable
// counter (which also resets across daemon restarts) would let one client
// adopt another's parked session — its buffers included. The peer key
// travels to other daemons, so it is never the session ID.
func (d *Daemon) registerSession(s *session) {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	for s.id == 0 || d.sessions[s.id] != nil {
		s.id = randomID()
	}
	for s.rv.key == 0 || s.rv.key == s.id || d.keys[s.rv.key] != nil {
		s.rv.key = randomID()
	}
	d.sessions[s.id] = s
	d.keys[s.rv.key] = s
}

// randomID draws a random 64-bit identifier.
func randomID() uint64 {
	var raw [8]byte
	rand.Read(raw[:]) // cannot fail: a broken entropy source crashes the process
	return binary.LittleEndian.Uint64(raw[:])
}

// takeDetachedSession claims parked session id for a Hello that resumes
// it under lease authID: the session leaves the registry and its expiry
// timer stops. It returns nil when the ID is unknown or expired. A session
// parked for another lease is refused and stays parked, its timer running:
// the session ID is the (unguessable, random) credential, and the lease
// must match on top, so a lease holder cannot adopt another client's
// session even with a leaked ID. A resume can outrace the old connection's
// close notice — this side's read loop may not even have seen the link
// drop yet — so a session that is still attached gets a bounded grace to
// detach before the answer is nil.
func (d *Daemon) takeDetachedSession(id uint64, authID string) (*session, error) {
	grace := time.NewTimer(2 * time.Second)
	defer grace.Stop()
	for {
		d.sessMu.Lock()
		s := d.sessions[id]
		if s == nil {
			d.sessMu.Unlock()
			return nil, nil
		}
		if s.detached {
			s.mu.Lock()
			owner := s.authID
			s.mu.Unlock()
			if owner != authID {
				d.sessMu.Unlock()
				return nil, cl.Errf(cl.InvalidServer, "session %d is not parked for this lease", id)
			}
			delete(d.sessions, id)
			s.retireTimer.Stop()
			d.sessMu.Unlock()
			return s, nil
		}
		d.sessMu.Unlock()
		select {
		case <-s.gone:
		case <-grace.C:
			return nil, nil
		}
	}
}

// detachSession parks a session whose connection died; only its own close
// notice calls it. The session is quiesced, but the object tables — and
// the buffer data in them — survive for SessionRetain so a resuming Hello
// finds them. Without retention the session retires immediately.
func (d *Daemon) detachSession(s *session) {
	s.quiesce()
	retain := d.cfg.SessionRetain
	s.mu.Lock()
	if s.noRetain {
		// The goodbye ended the lease: there is nothing to retain.
		retain = 0
	}
	s.mu.Unlock()
	d.sessMu.Lock()
	s.detached = true
	close(s.gone)
	if retain <= 0 {
		delete(d.sessions, s.id)
		d.sessMu.Unlock()
		s.retire()
		return
	}
	s.retireTimer = time.AfterFunc(retain, func() { d.expireSession(s) })
	d.sessMu.Unlock()
	d.logf("daemon %s: session %d detached, retained for %s", d.cfg.Name, s.id, retain)
}

// expireSession retires a detached session whose retention window ran
// out without a resume.
func (d *Daemon) expireSession(s *session) {
	d.sessMu.Lock()
	if d.sessions[s.id] != s || !s.detached {
		d.sessMu.Unlock()
		return
	}
	delete(d.sessions, s.id)
	d.sessMu.Unlock()
	s.retire()
	d.logf("daemon %s: session %d expired unclaimed", d.cfg.Name, s.id)
}

// RetainedSessions reports how many detached sessions are currently
// parked awaiting re-attachment (tests pin the retention lifecycle).
func (d *Daemon) RetainedSessions() int {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	n := 0
	for _, s := range d.sessions {
		if s.detached {
			n++
		}
	}
	return n
}

// SessionObjects reports how many objects the daemon's sessions hold,
// attached or parked: contexts, queues, buffers, programs, kernels, events,
// cached graphs and serve lanes. A session whose lease ended holds none.
func (d *Daemon) SessionObjects() int {
	d.sessMu.Lock()
	sessions := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		sessions = append(sessions, s)
	}
	d.sessMu.Unlock()
	n := 0
	for _, s := range sessions {
		n += s.objects()
	}
	return n
}

// objects counts what one session holds (see SessionObjects).
func (s *session) objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.contexts) + len(s.queues) + len(s.buffers) + len(s.programs) +
		len(s.kernels) + len(s.events) + len(s.graphs) + len(s.serves)
}

// reportInvalidatedLease tells the device manager(s) that a client
// disconnected without releasing its lease (Section IV-C). With a
// sharded control plane the report is broadcast across all manager
// links but except (the one that already knows; nil: none): only a shard
// holding a record of the lease acts on it.
func (d *Daemon) reportInvalidatedLease(authID string, except *rpc.Conn) {
	d.dmMu.Lock()
	links := make([]*rpc.Conn, 0, len(d.dms))
	for c := range d.dms {
		if c != except {
			links = append(links, c)
		}
	}
	d.dmMu.Unlock()
	for _, c := range links {
		if err := c.OneWay(protocol.MsgDMReleaseLease, func(w *protocol.Writer) { w.String(authID) }); err != nil {
			d.logf("daemon %s: lease release report failed: %v", d.cfg.Name, err)
		}
	}
}

// Logf is a convenience standard-library logger adapter.
func Logf(format string, args ...any) { log.Printf(format, args...) }
