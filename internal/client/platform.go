package client

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Dialer connects to a server address. It abstracts the fabric: simnet
// networks in tests and experiments, real TCP in deployments.
type Dialer func(addr string) (net.Conn, error)

// Options configures the client driver.
type Options struct {
	// Dialer reaches dOpenCL servers (required).
	Dialer Dialer
	// ClientName identifies this client to servers (defaults to "dopencl-client").
	ClientName string
	// HeartbeatInterval / HeartbeatTimeout enable link-liveness probing on
	// server connections: when no frame arrives for longer than the
	// timeout the connection is declared dead (cl.ServerLost) even though
	// the transport never errored — the silent-partition case that would
	// otherwise hang pipelined one-way enqueues and Finish forever. Zero
	// disables probing (transport errors still surface immediately).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
}

// Platform is the uniform dOpenCL platform (Section III-E): a self-
// contained platform object merging the devices of every connected server,
// so that devices from different servers can share one context. It
// implements cl.Platform, making the driver a drop-in replacement for a
// native OpenCL implementation.
type Platform struct {
	opts   Options
	nextID atomic.Uint64

	mu      sync.Mutex
	servers []*Server
	ctxs    []*Context // live contexts, for the server-down directory sweep

	// Control-plane shard map cache: fetched at connect, refreshed by
	// epoch bumps pushed on the manager connection (MsgDMPing one-ways)
	// and by the view carried on every grant.
	smMu       sync.Mutex
	shardEpoch uint64
	shards     []string

	// The kept links. One per device-manager shard asked so far: a lease
	// costs a request on it, not a dial (managerConn). And at most one idle
	// daemon link per address, the link of a released lease: the next lease
	// on that daemon binds to it instead of dialing (leaseServer). An idle
	// link lives as long as some manager link does, since a new lease can
	// only come through one.
	mgrMu sync.Mutex
	mgrs  map[string]*rpc.Conn
	idle  map[string]*Server
}

// noteShardView merges a pushed or fetched control-plane view into the
// cache; stale epochs are ignored.
func (p *Platform) noteShardView(view protocol.ShardMap) {
	p.smMu.Lock()
	// An unsharded manager's view (no shard list) is remembered too, so it
	// is asked once; a shard list at the same epoch still replaces it.
	if view.Epoch > p.shardEpoch || view.Epoch == p.shardEpoch && len(p.shards) == 0 {
		p.shardEpoch = view.Epoch
		p.shards = append([]string(nil), view.Shards...)
	}
	p.smMu.Unlock()
}

// ShardView returns the cached control-plane epoch and shard list (nil
// when unsharded or never fetched).
func (p *Platform) ShardView() (uint64, []string) {
	p.smMu.Lock()
	defer p.smMu.Unlock()
	return p.shardEpoch, append([]string(nil), p.shards...)
}

var _ cl.Platform = (*Platform)(nil)

// NewPlatform creates a dOpenCL platform with no servers connected.
// Connect servers explicitly (ConnectServer), from a configuration file
// (LoadServerConfig) or through a device manager (RequestFromManager).
func NewPlatform(opts Options) *Platform {
	if opts.ClientName == "" {
		opts.ClientName = "dopencl-client"
	}
	return &Platform{opts: opts, mgrs: map[string]*rpc.Conn{}, idle: map[string]*Server{}}
}

// Close ends the platform's device-manager links (a manager closing its
// side ends one too) and its idle daemon links. Connected servers are
// disconnected one by one, by DisconnectServer or Lease.Release; a later
// RequestFromManager dials again.
func (p *Platform) Close() {
	p.mgrMu.Lock()
	mgrs, idle := p.mgrs, p.idle
	p.mgrs, p.idle = map[string]*rpc.Conn{}, map[string]*Server{}
	p.mgrMu.Unlock()
	for _, c := range mgrs {
		c.Close()
	}
	for _, s := range idle {
		s.endpoint().Close()
	}
}

// Name returns "dOpenCL", the uniform platform name.
func (p *Platform) Name() string { return "dOpenCL" }

// Vendor returns the platform vendor string.
func (p *Platform) Vendor() string { return "University of Muenster (reimplementation)" }

// Version returns the platform version.
func (p *Platform) Version() string { return "OpenCL 1.1 dOpenCL 1.0" }

// Profile returns the supported profile.
func (p *Platform) Profile() string { return "FULL_PROFILE" }

// newID allocates a fresh object ID (stub IDs, Section III-D).
func (p *Platform) newID() uint64 { return p.nextID.Add(1) }

// ConnectServer connects to a dOpenCL server and merges its devices into
// the platform (clConnectServerWWU).
func (p *Platform) ConnectServer(addr string) (*Server, error) {
	return p.connectServerAuth(addr, "")
}

// connectServerAuth connects with an authentication ID (device-manager
// leases use this; direct connections pass "").
func (p *Platform) connectServerAuth(addr, authID string) (*Server, error) {
	ep, err := p.dialEndpoint(addr)
	if err != nil {
		return nil, err
	}
	s, err := dialServer(p, addr, ep, authID)
	if err != nil {
		return nil, err
	}
	p.addServer(s)
	return s, nil
}

func (p *Platform) addServer(s *Server) {
	p.mu.Lock()
	p.servers = append(p.servers, s)
	p.mu.Unlock()
}

// leaseServer connects the lease authID to the daemon at addr, whose
// devices in it the grant listed (recs): on the idle link to that daemon
// if there is a live one, which a one-way Hello binds to the lease, and
// over a new connection otherwise.
func (p *Platform) leaseServer(addr, authID string, recs []protocol.DeviceRecord) (*Server, error) {
	p.mgrMu.Lock()
	s := p.idle[addr]
	delete(p.idle, addr)
	p.mgrMu.Unlock()
	if s != nil {
		if err := s.bind(authID, recs); err == nil {
			p.addServer(s)
			return s, nil
		}
		s.endpoint().Close() // it died idle: dial
	}
	return p.connectServerAuth(addr, authID)
}

// endLease takes s out of the platform for the lease authID, ends the
// lease's daemon session on it (MsgGoodbye) and keeps the link idle for the
// next lease on that daemon, or closes it: when it is dead, when another
// link to the daemon is idle already, or when no manager link is left to
// bring a next lease. A server bound to another lease by now is left alone.
func (p *Platform) endLease(s *Server, authID string) error {
	if s.lease() != authID || !p.removeServer(s) {
		return cl.Errf(cl.InvalidServer, "server %s does not serve lease %.8s", s.addr, authID)
	}
	s.leaseEnded()
	if s.send(protocol.MsgGoodbye, nil) == nil {
		p.mgrMu.Lock()
		keep := len(p.mgrs) > 0 && p.idle[s.addr] == nil && s.Connected()
		if keep {
			p.idle[s.addr] = s
		}
		p.mgrMu.Unlock()
		if keep {
			return nil
		}
	}
	s.endpoint().Close()
	return nil
}

// forgetIdle drops s from the idle links once its connection has died.
func (p *Platform) forgetIdle(s *Server) {
	p.mgrMu.Lock()
	if p.idle[s.addr] == s {
		delete(p.idle, s.addr)
	}
	p.mgrMu.Unlock()
}

// removeServer takes s out of the connected list, reporting whether it was
// there.
func (p *Platform) removeServer(s *Server) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, cur := range p.servers {
		if cur == s {
			p.servers = append(p.servers[:i], p.servers[i+1:]...)
			return true
		}
	}
	return false
}

// dialEndpoint opens a gcf endpoint to addr, preferring the in-process
// fast path: a daemon that registered addr via ServeLocal in this
// process is connected through a local endpoint pair (zero-copy, no
// sockets); anything else goes through the configured Dialer.
func (p *Platform) dialEndpoint(addr string) (*gcf.Endpoint, error) {
	if ep, ok := gcf.DialLocal(addr); ok {
		return ep, nil
	}
	conn, err := p.opts.Dialer(addr)
	if err != nil {
		return nil, cl.Errf(cl.InvalidServer, "connecting to %s: %v", addr, err)
	}
	return gcf.NewEndpoint(conn, true), nil
}

// DisconnectServer removes the server from the platform; its devices
// become unavailable (clDisconnectServerWWU).
func (p *Platform) DisconnectServer(s *Server) error {
	if !p.removeServer(s) {
		return cl.Errf(cl.InvalidServer, "server %s not connected", s.addr)
	}
	s.disconnect()
	return nil
}

// Servers lists the currently connected servers.
func (p *Platform) Servers() []*Server {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Server(nil), p.servers...)
}

// registerContext records a live context for the failure sweeps.
func (p *Platform) registerContext(c *Context) {
	p.mu.Lock()
	p.ctxs = append(p.ctxs, c)
	p.mu.Unlock()
}

// forgetContext drops a released context from the registry.
func (p *Platform) forgetContext(c *Context) {
	p.mu.Lock()
	p.ctxs = removeFirst(p.ctxs, c)
	p.mu.Unlock()
}

// contextsOf snapshots the live contexts that include srv.
func (p *Platform) contextsOf(srv *Server) []*Context {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Context
	for _, c := range p.ctxs {
		c.mu.Lock()
		released := c.released
		c.mu.Unlock()
		if released {
			continue
		}
		if _, ok := c.remoteIDs[srv]; ok {
			out = append(out, c)
		}
	}
	return out
}

// serverLost sweeps every context after srv's connection died: buffer
// ranges whose only valid copy lived on srv become Lost, ranges with
// surviving holders keep working (re-homed on next use).
func (p *Platform) serverLost(srv *Server) {
	for _, c := range p.contextsOf(srv) {
		for _, b := range c.liveBuffers() {
			b.handleServerLost(srv)
		}
	}
}

// serverReattached replicates this client's remote objects back onto the
// re-attached daemon (see Context.resyncServer). It runs BEFORE the
// server is marked connected: a half-recovered daemon must stay down and
// retryable.
func (p *Platform) serverReattached(srv *Server) error {
	for _, c := range p.contextsOf(srv) {
		if err := c.resyncServer(srv); err != nil {
			return err
		}
	}
	return nil
}

// restoreDirectories re-installs the directory claims recorded as lost
// from srv after a retained re-attach confirmed the daemon kept the
// data. It runs AFTER the server is marked connected, so a concurrent
// read either still sees the range as Lost (DataLost) or sees a live
// Modified holder — never a half-state.
func (p *Platform) restoreDirectories(srv *Server) {
	for _, c := range p.contextsOf(srv) {
		for _, b := range c.liveBuffers() {
			b.restoreAfterReattach(srv)
		}
	}
}

// ServerInfo describes a connected server (clGetServerInfoWWU).
type ServerInfo struct {
	Addr        string
	Name        string
	Managed     bool
	DeviceCount int
}

// GetServerInfo queries a server's descriptive information.
func (p *Platform) GetServerInfo(s *Server) (ServerInfo, error) {
	resp, err := s.call(protocol.MsgGetServerInfo, nil)
	if err != nil {
		return ServerInfo{}, err
	}
	info := ServerInfo{
		Addr:        s.addr,
		Name:        resp.String(),
		Managed:     resp.Bool(),
		DeviceCount: int(resp.U32()),
	}
	return info, nil
}

// Devices merges the device lists of all connected servers (the automatic
// connection mechanism returns them as one list, Section III-C).
func (p *Platform) Devices(t cl.DeviceType) ([]cl.Device, error) {
	p.mu.Lock()
	servers := append([]*Server(nil), p.servers...)
	p.mu.Unlock()
	var out []cl.Device
	for _, s := range servers {
		for _, d := range s.Devices() {
			if d.info.Type&t != 0 {
				out = append(out, d)
			}
		}
	}
	if len(out) == 0 {
		return nil, cl.Errf(cl.DeviceNotFound, "no devices of type %s on %d connected servers", t, len(servers))
	}
	// Deterministic order: by server address, then unit ID.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].(*Device), out[j].(*Device)
		if a.srv.addr != b.srv.addr {
			return a.srv.addr < b.srv.addr
		}
		return a.unitID < b.unitID
	})
	return out, nil
}

// Device is a simple stub for a remote device (Section III-D: devices are
// owned by a single server, so a simple stub suffices).
type Device struct {
	srv    *Server
	unitID uint32
	info   cl.DeviceInfo
}

var _ cl.Device = (*Device)(nil)

// Name returns the device name.
func (d *Device) Name() string { return d.info.Name }

// Type returns the device type.
func (d *Device) Type() cl.DeviceType { return d.info.Type }

// Info returns the cached device description. The client driver caches
// immutable object information at connection time so that info queries
// need no network communication (Section III-B).
func (d *Device) Info() cl.DeviceInfo { return d.info }

// Available reports whether the owning server is still connected: devices
// of disconnected servers enter the "unavailable" state (Listing 1).
func (d *Device) Available() bool { return d.srv.Connected() }

// Server returns the server hosting this device.
func (d *Device) Server() *Server { return d.srv }
