// Package devmgr implements the dOpenCL device manager (Section IV of the
// paper), grown from the paper's single central service into a sharded,
// replicated control plane: each devmgr instance owns the slice of the
// device fleet that consistent-hashes to it, places leases from indexed
// per-(class, server) free lists behind a weighted fair grant queue, and
// exchanges membership views with its peer shards so the fleet survives
// shard death.
//
// The manager keeps two sets of devices — free and assigned — and hands
// out leases. A lease comprises a unique authentication ID, a set of
// devices and the set of servers owning those devices (Fig. 3). Managed
// daemons register their devices on startup and only expose to a client
// the devices associated with the client's authentication ID. Devices
// return to the free set when the client releases the lease or when a
// daemon reports the client's disconnection.
//
// Locking is split by concern instead of the seed's one global mutex:
// mu guards placement state (devices, free index, leases), srvMu the
// daemon registry, clMu the connected-client set, and each connection's
// request window has its own lock — so a slow daemon push never blocks
// an unrelated grant and health probes never block placement.
package devmgr

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// managedDevice is one registered device.
type managedDevice struct {
	id     string // DeviceID(server, unitID): the consistent-hash key
	server string // server address as announced to clients
	unitID uint32
	info   cl.DeviceInfo
	leased string // authID holding the device, "" when free
	gone   bool   // server dropped while the device was leased
}

// lease is one active assignment.
type lease struct {
	authID  string
	devices []*managedDevice
	servers map[string]bool
}

// daemonLink is a registered daemon's management connection.
type daemonLink struct {
	addr     string
	peerAddr string // daemon-to-daemon bulk-plane address ("" if unset)
	conn     *rpc.Conn
}

// Manager is one device manager instance — the whole control plane when
// unsharded, one shard of it when configured with WithShard.
type Manager struct {
	logf func(format string, args ...any)

	// mu guards placement state.
	mu        sync.Mutex
	devices   []*managedDevice
	leases    map[string]*lease
	idx       *devIndex
	freeCount int

	// srvMu guards the daemon registry.
	srvMu   sync.Mutex
	servers map[string]*daemonLink
	misses  map[string]int // consecutive failed health probes per server

	// clMu guards the connected-client set (epoch push targets).
	clMu    sync.Mutex
	clients map[*rpc.Conn]bool

	place *placement
	shard *shardState // nil when unsharded

	probeFanout int

	closeOnce sync.Once
}

// healthMissLimit is how many consecutive probe misses evict a daemon: a
// single miss can be a transient stall (GC pause, load spike) on a
// perfectly alive daemon. Eviction is no longer permanent — an evicted
// daemon's manager connection closes, its re-registration loop (jittered
// backoff, see daemon.AttachManagerAuto) notices and re-registers once
// the daemon is reachable again.
const healthMissLimit = 2

// defaultProbeFanout bounds how many health probes run concurrently.
const defaultProbeFanout = 16

// Option configures a Manager.
type Option func(*Manager)

// WithLogf directs diagnostics to fn.
func WithLogf(fn func(string, ...any)) Option {
	return func(m *Manager) { m.logf = fn }
}

// WithProbeFanout bounds concurrent health probes (0 restores the
// default).
func WithProbeFanout(n int) Option {
	return func(m *Manager) {
		if n > 0 {
			m.probeFanout = n
		}
	}
}

// New creates a device manager.
func New(opts ...Option) *Manager {
	m := &Manager{
		leases:      map[string]*lease{},
		idx:         newDevIndex(),
		servers:     map[string]*daemonLink{},
		misses:      map[string]int{},
		clients:     map[*rpc.Conn]bool{},
		probeFanout: defaultProbeFanout,
	}
	m.place = newPlacement(m)
	for _, o := range opts {
		o(m)
	}
	return m
}

// Close stops the placement workers and gossip loop and closes every
// daemon, client and peer connection. The caller closes its listener to
// stop Serve.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.place.close()
		if m.shard != nil {
			m.shard.close()
		}
		for _, c := range m.conns() {
			c.Close()
		}
	})
}

func (m *Manager) log(format string, args ...any) {
	if m.logf != nil {
		m.logf(format, args...)
	}
}

// Serve accepts connections (from daemons, clients and peer shards)
// until the listener closes.
func (m *Manager) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		m.ServeConn(conn)
	}
}

// conns snapshots every registered daemon's and connected client's
// connection.
func (m *Manager) conns() []*rpc.Conn {
	m.srvMu.Lock()
	out := make([]*rpc.Conn, 0, len(m.servers))
	for _, sc := range m.servers {
		out = append(out, sc.conn)
	}
	m.srvMu.Unlock()
	m.clMu.Lock()
	for c := range m.clients {
		out = append(out, c)
	}
	m.clMu.Unlock()
	return out
}

// ServeConn handles one connection. Daemons send DMRegisterServer first;
// clients send DMShardMap and/or DMRequestDevices; peer shards send
// DMGossip. Everything the manager is asked it answers; only the return
// of a lease, which nobody waits on, is one-way.
func (m *Manager) ServeConn(conn net.Conn) {
	c := rpc.New(gcf.NewEndpoint(conn, false))
	var sc *daemonLink // set once the peer registers as a daemon
	c.Start(m.routes(c, &sc), func(error) {
		for typ, n := range c.Unserved() {
			m.log("devmgr: connection dropped %d unserved or malformed %s frame(s)", n, typ)
		}
		m.clMu.Lock()
		delete(m.clients, c)
		m.clMu.Unlock()
		if sc != nil {
			m.dropServer(sc.addr, sc)
		}
	})
}

// routes is what the manager serves on connection c; *sc becomes the
// daemon c registers as, if it does.
func (m *Manager) routes(c *rpc.Conn, sc **daemonLink) rpc.Routes {
	return rpc.Routes{
		protocol.MsgDMRegisterServer: {Request: func(call rpc.Call) { *sc = m.handleRegister(c, call) }},
		protocol.MsgDMRequestDevices: {Request: func(call rpc.Call) { m.handleRequest(c, call) }},
		protocol.MsgDMReleaseLease:   {OneWay: m.handleRelease},
		protocol.MsgDMShardMap:       {Request: func(call rpc.Call) { call.Reply(cl.Success, m.ShardMap().Put) }},
		protocol.MsgDMGossip:         {Request: m.handleGossip},
	}
}

// handleRegister adds a daemon's devices to the shard. The registration
// may carry per-device lease holders (re-homing after a shard death:
// the daemon still enforces those auth IDs, so the adopting shard must
// account the devices as leased, not free). A re-registration under an
// address already present replaces the old registration wholesale.
func (m *Manager) handleRegister(c *rpc.Conn, call rpc.Call) *daemonLink {
	addr := call.Body.String()
	peerAddr := call.Body.String()
	recs := protocol.GetDeviceRecords(call.Body)
	var leasedBy []string
	if call.Body.Err() == nil && call.Body.Remaining() > 0 {
		leasedBy = call.Body.Strings()
	}
	if call.Body.Err() != nil || addr == "" {
		call.Refuse(cl.InvalidValue)
		return nil
	}

	m.srvMu.Lock()
	old := m.servers[addr]
	m.srvMu.Unlock()
	if old != nil {
		// Stale registration (daemon reconnected before its old
		// connection's close was observed): replace it.
		m.dropServer(addr, nil)
	}

	sc := &daemonLink{addr: addr, peerAddr: peerAddr, conn: c}
	m.srvMu.Lock()
	m.servers[addr] = sc
	m.srvMu.Unlock()

	m.mu.Lock()
	for i, rec := range recs {
		d := &managedDevice{
			id:     DeviceID(addr, rec.UnitID),
			server: addr, unitID: rec.UnitID, info: rec.Info,
		}
		if i < len(leasedBy) && leasedBy[i] != "" {
			d.leased = leasedBy[i]
			ls := m.leases[d.leased]
			if ls == nil {
				ls = &lease{authID: d.leased, servers: map[string]bool{}}
				m.leases[d.leased] = ls
			}
			ls.devices = append(ls.devices, d)
			ls.servers[addr] = true
			// Count against the server's load without entering a free list.
			m.idx.server(addr).load++
		} else {
			m.idx.addFree(d)
			m.freeCount++
		}
		m.devices = append(m.devices, d)
	}
	total := len(m.devices)
	m.mu.Unlock()
	call.Reply(cl.Success, nil)
	m.log("devmgr: server %s registered %d devices (%d total)", addr, len(recs), total)
	return sc
}

// dropServer removes a disconnected daemon and its devices, failing any
// in-flight assignment pushes. With only set it removes that link's
// registration and no other: a daemon that re-registers over a new link
// may be back under its address before the old link's close notice runs,
// which must not take the new registration with it. The registry lock is
// held until the devices are gone, so no registration slips in between.
func (m *Manager) dropServer(addr string, only *daemonLink) {
	m.srvMu.Lock()
	sc := m.servers[addr]
	if only != nil && sc != only {
		m.srvMu.Unlock()
		return
	}
	delete(m.servers, addr)
	delete(m.misses, addr)

	m.mu.Lock()
	kept := m.devices[:0]
	for _, d := range m.devices {
		if d.server != addr {
			kept = append(kept, d)
			continue
		}
		if d.leased == "" {
			m.freeCount--
		}
		// A leased device leaving with its server must not re-enter the
		// free set when its lease is released (the server may have
		// re-registered a fresh record for the same unit by then).
		d.gone = true
	}
	m.devices = kept
	m.idx.removeServer(addr)
	m.mu.Unlock()
	m.srvMu.Unlock()

	if sc != nil {
		// Close the connection so an evicted-but-alive daemon observes
		// the drop instead of believing it is still registered (and so
		// every assignment push in flight on it fails).
		sc.conn.Close()
	}
	m.log("devmgr: server %s dropped", addr)
}

// handleRelease takes back a lease its client is done with, or whose
// client a daemon saw die.
func (m *Manager) handleRelease(call rpc.Call) {
	authID := call.Body.String()
	if call.Malformed() {
		return
	}
	m.ReleaseLease(authID)
}

// handleRequest processes a client assignment request: admit it into the
// fair grant queue, and answer the client with the authentication ID and
// server list (step 3a of Fig. 2) once the grant is committed. The
// per-server daemon pushes (step 3b) run inside the placement workers —
// commitGrant — so by the time the response is sent the servers accept
// the authentication ID, and a shard's outstanding pushes are bounded by
// its worker pool. The endpoint's dispatch goroutine never blocks.
func (m *Manager) handleRequest(c *rpc.Conn, call rpc.Call) {
	preq := protocol.GetPlaceRequest(call.Body)
	if call.Body.Err() != nil || len(preq.Requests) == 0 {
		call.Refuse(cl.InvalidValue)
		return
	}
	// A client is a connection that has asked for devices: from here on it
	// is pushed every epoch bump.
	m.clMu.Lock()
	m.clients[c] = true
	m.clMu.Unlock()
	m.placeLeaseAsync(preq.Tenant, preq.Weight, preq.Requests, func(ls *leaseView, err error) {
		if err != nil {
			call.Reply(cl.CodeOf(err), func(w *protocol.Writer) { w.String(err.Error()) })
			return
		}
		call.Reply(cl.Success, func(w *protocol.Writer) {
			w.String(ls.authID)
			servers := ls.Servers()
			w.Strings(servers)
			// Each server's leased devices: what a client binding a kept
			// link to the lease would otherwise ask the daemon for.
			for _, addr := range servers {
				protocol.PutDeviceRecords(w, ls.records(addr))
			}
			m.ShardMap().Put(w)
		})
		m.log("devmgr: lease %s granted: %d devices on %d servers",
			ls.authID[:8], len(ls.devices), len(ls.servers))
	})
}

// pushTimeout bounds one daemon assignment push: a daemon that neither
// acks nor drops within it fails the grant rather than wedging a
// placement worker until the health sweep evicts it.
const pushTimeout = 10 * time.Second

// commitGrant pushes the lease's per-server assignments to the daemons
// (step 3b of Fig. 2) before the grant is reported placed, so the
// servers accept the authentication ID by the time the client connects.
// Servers without a live management link (in-process injected fleets)
// have nothing to push to. A failed push rolls the whole grant back.
// Running on the placement workers bounds a shard's outstanding pushes
// to its worker-pool size.
func (m *Manager) commitGrant(ls *leaseView) error {
	perServer := map[string][]uint64{}
	for _, d := range ls.devices {
		perServer[d.server] = append(perServer[d.server], uint64(d.unitID))
	}
	for addr, units := range perServer {
		m.srvMu.Lock()
		sc := m.servers[addr]
		m.srvMu.Unlock()
		if sc == nil {
			continue
		}
		if err := m.pushAssign(addr, ls.authID, units); err != nil {
			m.log("devmgr: assignment push to %s failed: %v", addr, err)
			m.ReleaseLease(ls.authID)
			return cl.Errf(cl.InvalidServer, "assignment push to %s failed", addr)
		}
	}
	return nil
}

// pushAssign sends a DMAssign to the daemon at addr and waits for its ack.
func (m *Manager) pushAssign(addr, authID string, units []uint64) error {
	return m.request(addr, protocol.MsgDMAssign, pushTimeout, func(w *protocol.Writer) {
		w.String(authID)
		w.U64s(units)
	})
}

// request performs one request/response exchange with a registered
// daemon; a refusal is an error like any other.
func (m *Manager) request(addr string, typ protocol.MsgType, timeout time.Duration, fill func(*protocol.Writer)) error {
	m.srvMu.Lock()
	sc := m.servers[addr]
	m.srvMu.Unlock()
	if sc == nil {
		return fmt.Errorf("server %s not registered", addr)
	}
	_, err := sc.conn.Call(typ, timeout, fill)
	return err
}

// ReleaseLease returns a lease's devices to the free set and tells the
// involved daemons to discard the authentication ID.
func (m *Manager) ReleaseLease(authID string) {
	m.mu.Lock()
	ls, ok := m.leases[authID]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(m.leases, authID)
	for _, d := range ls.devices {
		if d.leased != authID {
			continue
		}
		d.leased = ""
		if d.gone {
			continue // server left; the device is no longer placeable
		}
		m.idx.release(d)
		m.freeCount++
	}
	m.mu.Unlock()

	m.srvMu.Lock()
	var links []*daemonLink
	for addr := range ls.servers {
		if sc := m.servers[addr]; sc != nil {
			links = append(links, sc)
		}
	}
	m.srvMu.Unlock()
	for _, sc := range links {
		if err := sc.conn.OneWay(protocol.MsgDMRevoke, func(w *protocol.Writer) { w.String(authID) }); err != nil {
			m.log("devmgr: revoke to %s failed: %v", sc.addr, err)
		}
	}
	// Adopted lease IDs (handleRegister) are whatever the daemon sent:
	// never slice one.
	m.log("devmgr: lease %.8s released", authID)
}

// CheckHealth pings every registered daemon and evicts the ones that
// missed healthMissLimit consecutive probes: their devices leave the
// free set, so new assignments route around them (in-flight leases on a
// dead daemon are already invalid — the daemon's client sessions died
// with it), and their manager connection is closed so the daemon side
// can observe the eviction and re-register once healthy. It returns the
// addresses evicted. A transport-dead daemon is evicted by its
// connection close without waiting for a probe; the probes catch the
// silently hung ones.
//
// Probes run concurrently with a bounded fan-out: sequentially, one hung
// daemon would delay detection of every daemon behind it by a full
// timeout each; unbounded, a 10k-daemon fleet would burst 10k goroutines
// per sweep. Each probe carries the shard map, so every health sweep
// doubles as an epoch refresh for the daemons.
func (m *Manager) CheckHealth(timeout time.Duration) []string {
	m.srvMu.Lock()
	addrs := make([]string, 0, len(m.servers))
	for addr := range m.servers {
		addrs = append(addrs, addr)
	}
	m.srvMu.Unlock()
	sort.Strings(addrs)

	view := m.ShardMap()
	fill := func(w *protocol.Writer) { view.Put(w) }

	failed := make([]bool, len(addrs))
	sem := make(chan struct{}, m.probeFanout)
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, addr string) {
			defer func() { <-sem; wg.Done() }()
			if err := m.request(addr, protocol.MsgDMPing, timeout, fill); err != nil {
				m.log("devmgr: health check failed for %s: %v", addr, err)
				failed[i] = true
			}
		}(i, addr)
	}
	wg.Wait()

	var evicted []string
	for i, addr := range addrs {
		if !failed[i] {
			m.srvMu.Lock()
			delete(m.misses, addr)
			m.srvMu.Unlock()
			continue
		}
		m.srvMu.Lock()
		m.misses[addr]++
		evict := m.misses[addr] >= healthMissLimit
		if evict {
			delete(m.misses, addr)
		}
		m.srvMu.Unlock()
		if evict {
			m.dropServer(addr, nil)
			evicted = append(evicted, addr)
		}
	}
	return evicted
}

// StartHealthChecks probes all daemons every interval until the returned
// stop function is called.
func (m *Manager) StartHealthChecks(interval, timeout time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.CheckHealth(timeout)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ServerPeerAddr returns the registered daemon's peer data-plane
// address ("" when the daemon is unknown or forwarding is disabled).
func (m *Manager) ServerPeerAddr(addr string) string {
	m.srvMu.Lock()
	defer m.srvMu.Unlock()
	if sc := m.servers[addr]; sc != nil {
		return sc.peerAddr
	}
	return ""
}

// AddDevices injects devices for a server without a live daemon
// connection — the in-process embedding and benchmarking path (lease
// revocations for such servers are skipped, exactly as for any
// unregistered server).
func (m *Manager) AddDevices(server string, recs []protocol.DeviceRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		d := &managedDevice{
			id:     DeviceID(server, rec.UnitID),
			server: server, unitID: rec.UnitID, info: rec.Info,
		}
		m.devices = append(m.devices, d)
		m.idx.addFree(d)
		m.freeCount++
	}
}

// FreeDevices reports how many devices are currently unassigned.
func (m *Manager) FreeDevices() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeCount
}

// ActiveLeases reports the number of outstanding leases.
func (m *Manager) ActiveLeases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leases)
}

// DeviceIDs returns the sorted consistent-hash IDs of every device this
// instance currently manages (free and leased) — the observable the
// re-homing tests verify exact ownership against.
func (m *Manager) DeviceIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.devices))
	for _, d := range m.devices {
		out = append(out, d.id)
	}
	sort.Strings(out)
	return out
}

// matches checks a device against the request's property constraints,
// mirroring the clGetDeviceInfo-based matching of Section IV-B.
func matches(d *managedDevice, req protocol.DeviceRequest) bool {
	if d.info.Type&req.Type == 0 {
		return false
	}
	if req.MinComputeUnits > 0 && d.info.ComputeUnits < req.MinComputeUnits {
		return false
	}
	if req.MinGlobalMem > 0 && d.info.GlobalMemSize < req.MinGlobalMem {
		return false
	}
	if req.Vendor != "" && !strings.Contains(strings.ToLower(d.info.Vendor), strings.ToLower(req.Vendor)) {
		return false
	}
	if req.Name != "" && !strings.Contains(strings.ToLower(d.info.Name), strings.ToLower(req.Name)) {
		return false
	}
	return true
}

// newAuthID generates a cryptographically random lease ID.
func newAuthID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("devmgr: generating auth ID: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// leaseView is the immutable result of an assignment.
type leaseView struct {
	authID  string
	devices []*managedDevice
	servers map[string]bool
}

// AuthID returns the lease's authentication ID.
func (v *leaseView) AuthID() string { return v.authID }

// Servers returns the lease's server addresses.
func (v *leaseView) Servers() []string {
	out := make([]string, 0, len(v.servers))
	for s := range v.servers {
		out = append(out, s)
	}
	return out
}

// records returns the records of the lease's devices on server addr.
func (v *leaseView) records(addr string) []protocol.DeviceRecord {
	var out []protocol.DeviceRecord
	for _, d := range v.devices {
		if d.server == addr {
			out = append(out, protocol.DeviceRecord{UnitID: d.unitID, Info: d.info})
		}
	}
	return out
}

// DeviceCount returns the number of assigned devices.
func (v *leaseView) DeviceCount() int { return len(v.devices) }
