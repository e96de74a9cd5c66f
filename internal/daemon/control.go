package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Control-plane attachment. Two entry points:
//
//   - AttachManager: one connection, all devices, no recovery — the
//     paper's registration (Fig. 2 step 1). Its callers: the benchmark's
//     lease workload (benchmark/w_lease.go), and the in-package devmgr and
//     daemon tests that need one link's registration that never
//     re-registers (the health-eviction tests, the fake manager).
//   - JoinControlPlane: the daemon partitions its devices by rendezvous
//     owner over the live shard set, keeps one registration per owning
//     shard, and re-partitions (re-homing the moved devices, carrying
//     their lease holders) whenever the membership epoch bumps or a link
//     dies, retrying failures with jittered exponential backoff. A single
//     unsharded manager is a control plane of one seed: its view lists no
//     shards, so every device stays registered with it, and re-registers
//     after a restart or an eviction.

// attachManagerConn registers the given device units (nil = all) with
// the manager over an existing connection and serves the manager's
// assign/revoke/ping traffic. onView (may be nil) receives shard-map
// views pushed or carried on pings; onDown (may be nil) fires when the
// connection dies.
func (d *Daemon) attachManagerConn(conn net.Conn, selfAddr string, units []uint32, onView func(protocol.ShardMap), onDown func()) (*rpc.Conn, error) {
	c := rpc.New(gcf.NewEndpoint(conn, true))
	d.dmMu.Lock()
	d.dms[c] = true
	d.dmMu.Unlock()

	c.Start(d.managerRoutes(c, onView), func(error) {
		d.logUnserved("manager link", c)
		d.dmMu.Lock()
		delete(d.dms, c)
		d.dmMu.Unlock()
		if onDown != nil {
			onDown()
		}
	})

	// Register this server and its devices with the manager, announcing
	// the peer data-plane address so clients holding multi-server leases
	// can route daemon-to-daemon forwards, and the current lease holder of
	// every registered unit so a re-registration (manager restart, shard
	// re-homing) reconstructs lease accounting instead of double-booking
	// still-leased devices.
	recs, leasedBy := d.recordsFor(units)
	_, err := c.Call(protocol.MsgDMRegisterServer, 0, func(w *protocol.Writer) {
		w.String(selfAddr)
		w.String(d.cfg.PeerAddr)
		protocol.PutDeviceRecords(w, recs)
		w.Strings(leasedBy)
	})
	if err != nil {
		c.Close()
		if errors.Is(err, rpc.ErrLost) {
			return nil, cl.Errf(cl.InvalidServer, "registering with device manager: %v", err)
		}
		return nil, cl.Errf(cl.CodeOf(err), "device manager rejected registration")
	}
	d.logf("daemon %s: registered %d devices with device manager as %s", d.cfg.Name, len(recs), selfAddr)
	return c, nil
}

// managerRoutes is what the daemon serves on manager link c, each in the
// class the manager sends it: an assignment is asked (the manager waits
// for the daemon to admit the lease before it grants it), a revoke is
// told, and a ping is either — a health probe asks, an epoch push tells.
func (d *Daemon) managerRoutes(c *rpc.Conn, onView func(protocol.ShardMap)) rpc.Routes {
	// Health probe or epoch push. The body, when present, carries the
	// manager's membership view.
	ping := func(c rpc.Call) {
		if c.Body.Remaining() > 0 {
			view := protocol.GetShardMap(c.Body)
			if c.Malformed() {
				return
			}
			if onView != nil {
				onView(view)
			}
		}
		c.Reply(cl.Success, nil)
	}
	revoke := func(call rpc.Call) { d.handleRevoke(c, call) }
	return rpc.Routes{
		protocol.MsgDMAssign: {Request: d.handleAssign},
		protocol.MsgDMRevoke: {OneWay: revoke},
		protocol.MsgDMPing:   {Request: ping, OneWay: ping},
	}
}

// handleAssign admits a lease the manager placed on this daemon's units.
func (d *Daemon) handleAssign(c rpc.Call) {
	authID := c.Body.String()
	units := c.Body.U64s()
	if c.Malformed() {
		return
	}
	u32 := make([]uint32, len(units))
	for i, u := range units {
		u32[i] = uint32(u)
	}
	d.Allow(authID, u32)
	c.Reply(cl.Success, nil)
}

// handleRevoke ends a lease on the word of the shard behind link from.
// The lease ends here as a whole, but units of it may have re-homed to
// other shards since it was granted (a shard died or came back): they
// hold the lease's record for those units and hear of its end from
// nobody else — the client releases to the granting shard only, and the
// session's own report (retire) finds the lease already gone.
func (d *Daemon) handleRevoke(from *rpc.Conn, c rpc.Call) {
	authID := c.Body.String()
	if c.Malformed() {
		return
	}
	if d.HasLease(authID) {
		d.Revoke(authID)
		d.reportInvalidatedLease(authID, from)
	}
}

// recordsFor returns the device records for the given units (nil = all)
// plus the parallel lease-holder list ("" for free units).
func (d *Daemon) recordsFor(units []uint32) ([]protocol.DeviceRecord, []string) {
	if units == nil {
		units = make([]uint32, len(d.devices))
		for i := range d.devices {
			units[i] = uint32(i)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	recs := make([]protocol.DeviceRecord, 0, len(units))
	leasedBy := make([]string, 0, len(units))
	for _, u := range units {
		if int(u) >= len(d.devices) {
			continue
		}
		recs = append(recs, protocol.DeviceRecord{UnitID: u, Info: d.devices[u].Info()})
		holder := ""
		for authID, set := range d.leases {
			if set[u] {
				holder = authID
				break
			}
		}
		leasedBy = append(leasedBy, holder)
	}
	return recs, leasedBy
}

// AttachManager connects the daemon to the device manager in managed
// mode: it registers the daemon's devices (keyed by selfAddr, the
// address clients use to reach this daemon) and then serves
// assignment/revocation messages arriving from the manager.
func (d *Daemon) AttachManager(conn net.Conn, selfAddr string) error {
	_, err := d.attachManagerConn(conn, selfAddr, nil, nil, nil)
	return err
}

// jitter draws uniformly from [d/2, d).
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}

// ControlPlaneConfig configures JoinControlPlane.
type ControlPlaneConfig struct {
	// Dial reaches device manager shards (required).
	Dial func(addr string) (net.Conn, error)
	// Seeds are the initial shard addresses; the live set is learned from
	// the shard map and kept fresh by epoch pushes (required, ≥1).
	Seeds []string
	// SelfAddr is the address clients use to reach this daemon (required).
	SelfAddr string
	// RetryMin / RetryMax bound the jittered re-registration backoff
	// (defaults 50ms / 5s).
	RetryMin, RetryMax time.Duration
}

// controlPlane reconciles the daemon's desired registrations (rendezvous
// partition of its devices over the live shard set) with its actual
// manager links.
type controlPlane struct {
	d   *Daemon
	cfg ControlPlaneConfig

	mu      sync.Mutex
	epoch   uint64
	shards  []string
	links   map[string]*shardLink
	pending net.Conn // the connection register is waiting on, closed by close

	wake chan struct{}
	stop chan struct{}
	done chan struct{} // closed when loop has returned
	once sync.Once
}

// shardLink is one live registration with one shard.
type shardLink struct {
	addr  string
	conn  *rpc.Conn
	units []uint32 // sorted
	down  bool     // the connection has died (guarded by controlPlane.mu)
}

// JoinControlPlane starts the daemon's membership in a control plane: it
// learns the shard map from the seeds, registers each device with the
// shard that owns its DeviceID, and keeps the partition reconciled as
// shards die and return — moved devices re-register with their new owner
// (lease holders carried), with jittered backoff on failure, over
// [delay/2, delay) so a restarted manager does not see the whole fleet
// re-register on one tick. The returned stop function leaves the control
// plane and closes all manager links; it returns once the reconciliation
// loop has exited, so nothing dials a shard on the daemon's behalf after.
func (d *Daemon) JoinControlPlane(cfg ControlPlaneConfig) (stop func(), err error) {
	if cfg.Dial == nil || len(cfg.Seeds) == 0 || cfg.SelfAddr == "" {
		return nil, fmt.Errorf("daemon: control plane config requires Dial, Seeds and SelfAddr")
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 50 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 5 * time.Second
		if cfg.RetryMax < cfg.RetryMin {
			cfg.RetryMax = cfg.RetryMin
		}
	}
	cp := &controlPlane{
		d:      d,
		cfg:    cfg,
		shards: append([]string(nil), cfg.Seeds...),
		links:  map[string]*shardLink{},
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	sort.Strings(cp.shards)
	d.cp.Store(cp)
	go cp.loop()
	cp.poke()
	return cp.close, nil
}

// ControlPlaneView prints this daemon's side of a sharded control plane:
// the membership view it partitions its devices by, and the units it
// believes each shard has a registration of.
func (d *Daemon) ControlPlaneView() string {
	cp := d.cp.Load()
	if cp == nil {
		return "not joined"
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return fmt.Sprintf("epoch %d, shards %v, registered %v", cp.epoch, cp.shards, cp.links)
}

func (l *shardLink) String() string { return fmt.Sprint(l.units) }

func (cp *controlPlane) poke() {
	select {
	case cp.wake <- struct{}{}:
	default:
	}
}

// noteView adopts a newer membership view and triggers reconciliation.
func (cp *controlPlane) noteView(view protocol.ShardMap) {
	cp.mu.Lock()
	changed := view.Epoch > cp.epoch && len(view.Shards) > 0
	if changed {
		cp.epoch = view.Epoch
		cp.shards = append([]string(nil), view.Shards...)
	}
	cp.mu.Unlock()
	if changed {
		cp.d.logf("daemon %s: control plane epoch %d, shards %v", cp.d.cfg.Name, view.Epoch, view.Shards)
		cp.poke()
	}
}

func (cp *controlPlane) loop() {
	defer close(cp.done)
	delay := cp.cfg.RetryMin
	for {
		settled := cp.reconcile()
		if settled {
			delay = cp.cfg.RetryMin
			select {
			case <-cp.stop:
				return
			case <-cp.wake:
			}
			continue
		}
		// A registration failed — often because our view is stale (the
		// target shard died and we never saw the epoch bump: every link
		// that would have carried it may be down too). Re-learn the view
		// before retrying.
		cp.refreshView()
		select {
		case <-cp.stop:
			return
		case <-cp.wake:
		case <-time.After(jitter(delay)):
		}
		if delay *= 2; delay > cp.cfg.RetryMax {
			delay = cp.cfg.RetryMax
		}
	}
}

// refreshView fetches the shard map from the first reachable shard or
// seed and adopts it if newer.
func (cp *controlPlane) refreshView() {
	cp.mu.Lock()
	targets := append([]string(nil), cp.shards...)
	cp.mu.Unlock()
	seen := map[string]bool{}
	for _, a := range targets {
		seen[a] = true
	}
	for _, a := range cp.cfg.Seeds {
		if !seen[a] {
			targets = append(targets, a)
		}
	}
	if view, err := rpc.FetchShardMap(cp.dial, targets, cp.cfg.RetryMax); err == nil {
		cp.noteView(view)
	}
}

// reconcile computes the desired (shard → units) partition and fixes up
// links: register where missing or changed, drop links to shards that
// own nothing anymore. Returns false when any registration failed (the
// loop retries with backoff).
func (cp *controlPlane) reconcile() bool {
	cp.mu.Lock()
	shards := append([]string(nil), cp.shards...)
	cp.mu.Unlock()

	desired := map[string][]uint32{}
	for i := range cp.d.devices {
		u := uint32(i)
		owner := protocol.Owner(shards, protocol.DeviceID(cp.cfg.SelfAddr, u))
		if owner != "" {
			desired[owner] = append(desired[owner], u)
		}
	}

	settled := true
	for addr, units := range desired {
		cp.mu.Lock()
		link := cp.links[addr]
		cp.mu.Unlock()
		if link != nil && equalUnits(link.units, units) {
			continue
		}
		if link != nil {
			link.conn.Close() // partition changed: re-register wholesale
		}
		if !cp.register(addr, units) {
			settled = false
		}
	}
	cp.mu.Lock()
	var stale []*shardLink
	for addr, link := range cp.links {
		if _, ok := desired[addr]; !ok {
			stale = append(stale, link)
			delete(cp.links, addr)
		}
	}
	cp.mu.Unlock()
	for _, link := range stale {
		link.conn.Close()
	}
	return settled
}

// dial dials a shard for the loop, unless the control plane is stopping.
func (cp *controlPlane) dial(addr string) (net.Conn, error) {
	select {
	case <-cp.stop:
		return nil, errors.New("control plane stopped")
	default:
		return cp.cfg.Dial(addr)
	}
}

// register establishes one shard registration.
func (cp *controlPlane) register(addr string, units []uint32) bool {
	conn, err := cp.dial(addr)
	if err != nil {
		cp.d.logf("daemon %s: dialing shard %s: %v", cp.d.cfg.Name, addr, err)
		return false
	}
	// A shard that accepts and never answers must not hold close up: it
	// closes the connection, failing the registration.
	cp.mu.Lock()
	select {
	case <-cp.stop:
		cp.mu.Unlock()
		conn.Close()
		return false
	default:
		cp.pending = conn
	}
	cp.mu.Unlock()
	link := &shardLink{addr: addr, units: units}
	c, err := cp.d.attachManagerConn(conn, cp.cfg.SelfAddr, units, cp.noteView, func() {
		cp.mu.Lock()
		link.down = true
		if cp.links[addr] == link {
			delete(cp.links, addr)
		}
		cp.mu.Unlock()
		cp.poke()
	})
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.pending = nil
	if err != nil {
		cp.d.logf("daemon %s: registering with shard %s: %v", cp.d.cfg.Name, addr, err)
		return false
	}
	link.conn = c
	if link.down {
		// Its close notice found nothing to forget: recorded now, it stays.
		return false
	}
	cp.links[addr] = link
	return true
}

// close stops the loop, waits for it (a registration it is inside fails
// at once; a view refresh ends within RetryMax) and closes the links it
// left.
func (cp *controlPlane) close() {
	cp.once.Do(func() { close(cp.stop) })
	cp.mu.Lock()
	if cp.pending != nil {
		cp.pending.Close()
	}
	cp.mu.Unlock()
	<-cp.done
	cp.mu.Lock()
	links := make([]*shardLink, 0, len(cp.links))
	for _, l := range cp.links {
		links = append(links, l)
	}
	cp.links = map[string]*shardLink{}
	cp.mu.Unlock()
	for _, l := range links {
		l.conn.Close()
	}
}

func equalUnits(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
