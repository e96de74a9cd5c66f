package client

import (
	"bufio"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// ParseServerList parses the dOpenCL server configuration file of
// Listing 2: one server per line (host name or IP, optional :port), with
// '#' comments and blank lines ignored.
func ParseServerList(r io.Reader) ([]string, error) {
	var servers []string
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if strings.ContainsAny(text, " \t") {
			return nil, fmt.Errorf("server config line %d: unexpected whitespace in %q", line, text)
		}
		servers = append(servers, text)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return servers, nil
}

// LoadServerConfig implements the automatic connection mechanism
// (Section III-C): it connects to every server listed in the
// configuration and merges their devices into the platform. It returns
// the connected servers; individual connection failures abort the load.
func (p *Platform) LoadServerConfig(r io.Reader) ([]*Server, error) {
	addrs, err := ParseServerList(r)
	if err != nil {
		return nil, err
	}
	var servers []*Server
	for _, addr := range addrs {
		s, err := p.ConnectServer(addr)
		if err != nil {
			return servers, err
		}
		servers = append(servers, s)
	}
	return servers, nil
}

// ManagerConfig is the parsed device-manager configuration (Listing 3):
// the manager's address(es) plus the device requests. With a sharded
// control plane, Managers lists the seed shards ( `<devmngr>` accepts a
// comma- or whitespace-separated list); Manager is the first seed,
// retained for single-manager callers.
type ManagerConfig struct {
	Manager  string
	Managers []string
	Requests []protocol.DeviceRequest
	// Tenant labels this client for fair admission (defaults to the
	// platform's client name); Weight scales its fair share (0 = 1).
	Tenant string
	Weight uint32
}

// seeds returns the configured manager addresses.
func (c ManagerConfig) seeds() []string {
	if len(c.Managers) > 0 {
		return c.Managers
	}
	if c.Manager != "" {
		return []string{c.Manager}
	}
	return nil
}

// xmlConfig mirrors the XML schema of Listing 3. The paper's example has
// no single root element, so ParseManagerConfig wraps the document before
// decoding.
type xmlConfig struct {
	DevMngr string `xml:"devmngr"`
	Devices struct {
		Device []struct {
			Count      string `xml:"count,attr"`
			Attributes []struct {
				Name  string `xml:"name,attr"`
				Value string `xml:",chardata"`
			} `xml:"attribute"`
		} `xml:"device"`
	} `xml:"devices"`
}

// ParseManagerConfig parses the XML device-request configuration.
func ParseManagerConfig(r io.Reader) (ManagerConfig, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return ManagerConfig{}, err
	}
	doc := "<dopencl>" + string(raw) + "</dopencl>"
	var x xmlConfig
	if err := xml.Unmarshal([]byte(doc), &x); err != nil {
		return ManagerConfig{}, fmt.Errorf("device manager config: %w", err)
	}
	cfg := ManagerConfig{}
	cfg.Managers = strings.FieldsFunc(x.DevMngr, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if len(cfg.Managers) == 0 {
		return ManagerConfig{}, fmt.Errorf("device manager config: missing <devmngr> element")
	}
	cfg.Manager = cfg.Managers[0]
	for i, d := range x.Devices.Device {
		req := protocol.DeviceRequest{Count: 1, Type: cl.DeviceTypeAll}
		if d.Count != "" {
			n, err := strconv.Atoi(d.Count)
			if err != nil || n <= 0 {
				return ManagerConfig{}, fmt.Errorf("device %d: bad count %q", i+1, d.Count)
			}
			req.Count = n
		}
		for _, attr := range d.Attributes {
			val := strings.TrimSpace(attr.Value)
			switch strings.ToUpper(attr.Name) {
			case "TYPE":
				t, err := cl.ParseDeviceType(val)
				if err != nil {
					return ManagerConfig{}, fmt.Errorf("device %d: %v", i+1, err)
				}
				req.Type = t
			case "VENDOR":
				req.Vendor = val
			case "NAME":
				req.Name = val
			case "MAX_COMPUTE_UNITS", "MIN_COMPUTE_UNITS":
				n, err := strconv.Atoi(val)
				if err != nil {
					return ManagerConfig{}, fmt.Errorf("device %d: bad compute units %q", i+1, val)
				}
				req.MinComputeUnits = n
			case "GLOBAL_MEM_SIZE", "MIN_GLOBAL_MEM_SIZE":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return ManagerConfig{}, fmt.Errorf("device %d: bad memory size %q", i+1, val)
				}
				req.MinGlobalMem = n
			default:
				return ManagerConfig{}, fmt.Errorf("device %d: unknown attribute %q", i+1, attr.Name)
			}
		}
		cfg.Requests = append(cfg.Requests, req)
	}
	if len(cfg.Requests) == 0 {
		return ManagerConfig{}, fmt.Errorf("device manager config: no device requests")
	}
	return cfg, nil
}

// Lease is a device-manager assignment held by this client: the
// authentication ID plus the servers that honour it. ManagerAddr is the
// address of the shard that granted the lease — with a sharded control
// plane and failover it may be any shard of the tenant's ShardOrder
// permutation, not necessarily the home (first) one.
type Lease struct {
	AuthID      string
	ManagerAddr string
	Servers     []*Server
	plat        *Platform
}

// RequestFromManager implements the automatic device request mechanism
// (Section IV-B, Fig. 2) against the sharded control plane: fetch the
// shard map at connect (cached, refreshed by epoch pushes), try the
// shards in the tenant's rendezvous order — falling over to the next
// shard on connection failure, admission refusal (cl.Busy) or a shard
// with no matching free device — and from the granting shard receive the
// lease (authentication ID + server list), connect to the listed servers
// with the authentication ID and merge the assigned devices into the
// platform.
func (p *Platform) RequestFromManager(cfg ManagerConfig) (*Lease, error) {
	seeds := cfg.seeds()
	if len(seeds) == 0 {
		// Fall back to the platform-level seed list (Options.Managers), so
		// facade users configure the control plane once at NewPlatform.
		seeds = p.opts.Managers
	}
	if len(seeds) == 0 {
		return nil, cl.Errf(cl.InvalidValue, "no device manager configured")
	}
	tenant := cfg.Tenant
	if tenant == "" {
		tenant = p.opts.ClientName
	}

	// Candidate order: cached/fetched shard map in the tenant's rendezvous
	// permutation, then any configured seed not in the map (covers an
	// unsharded manager, whose view lists no shards, and a stale map).
	// Epoch 0 means never fetched: managers start at 1.
	epoch, shards := p.ShardView()
	if epoch == 0 {
		p.fetchShardMap(seeds)
		_, shards = p.ShardView()
	}
	candidates := protocol.ShardOrder(shards, tenant)
	inMap := map[string]bool{}
	for _, a := range candidates {
		inMap[a] = true
	}
	for _, a := range seeds {
		if !inMap[a] {
			candidates = append(candidates, a)
		}
	}

	var lastErr error
	for _, addr := range candidates {
		lease, err := p.requestFromShard(addr, tenant, cfg)
		if err == nil {
			return lease, nil
		}
		lastErr = err
		switch cl.CodeOf(err) {
		case cl.Busy, cl.DeviceNotFound, cl.InvalidServer:
			continue // this shard is overloaded, empty or unreachable — try the next
		default:
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = cl.Errf(cl.InvalidServer, "no device manager reachable")
	}
	return nil, lastErr
}

// fetchShardMap asks the seeds in turn for the control plane's view, on the
// kept link to each, until one answers: the link the map comes over is the
// one a placement request to that shard then rides.
func (p *Platform) fetchShardMap(seeds []string) {
	for _, addr := range seeds {
		c, _, err := p.managerConn(addr)
		if err != nil {
			continue
		}
		resp, err := c.Call(protocol.MsgDMShardMap, 0, nil)
		if err != nil {
			if resp == nil {
				p.dropManagerConn(addr, c)
			}
			continue
		}
		if view := protocol.GetShardMap(resp); resp.Err() == nil {
			p.noteShardView(view)
			return
		}
	}
}

// managerRoutes is all a shard tells its client unasked: an epoch bump,
// to refresh the cached map with.
func (p *Platform) managerRoutes() rpc.Routes {
	return rpc.Routes{protocol.MsgDMPing: {OneWay: func(c rpc.Call) {
		view := protocol.GetShardMap(c.Body)
		if c.Malformed() {
			return
		}
		p.noteShardView(view)
	}}}
}

// managerConn returns the kept link to the shard at addr, dialing it when
// there is none; kept reports which. The link outlives the lease it was
// dialed for: the shard pushes its epoch bumps on it (managerRoutes)
// whether or not a lease is held, and the next request or release finds it
// open.
func (p *Platform) managerConn(addr string) (c *rpc.Conn, kept bool, err error) {
	p.mgrMu.Lock()
	defer p.mgrMu.Unlock()
	if c := p.mgrs[addr]; c != nil {
		return c, true, nil
	}
	conn, err := p.opts.Dialer(addr)
	if err != nil {
		return nil, false, err
	}
	c = rpc.New(gcf.NewEndpoint(conn, true))
	p.mgrs[addr] = c
	c.Start(p.managerRoutes(), func(error) { p.dropManagerConn(addr, c) })
	return c, false, nil
}

// dropManagerConn forgets and closes a link that died or failed a call; the
// next request to its shard dials again. With the platform's last manager
// link go its idle daemon links: no lease can come to bind to them.
func (p *Platform) dropManagerConn(addr string, c *rpc.Conn) {
	p.mgrMu.Lock()
	if p.mgrs[addr] == c {
		delete(p.mgrs, addr)
	}
	var idle map[string]*Server
	if len(p.mgrs) == 0 {
		idle, p.idle = p.idle, map[string]*Server{}
	}
	p.mgrMu.Unlock()
	c.Close()
	for _, s := range idle {
		s.endpoint().Close()
	}
}

// requestFromShard runs one placement attempt against one shard.
func (p *Platform) requestFromShard(manager, tenant string, cfg ManagerConfig) (*Lease, error) {
	var resp *protocol.Reader
	for {
		c, kept, err := p.managerConn(manager)
		if err != nil {
			return nil, cl.Errf(cl.InvalidServer, "connecting to device manager %s: %v", manager, err)
		}
		resp, err = c.Call(protocol.MsgDMRequestDevices, 0, func(w *protocol.Writer) {
			protocol.PlaceRequest{Tenant: tenant, Weight: cfg.Weight, Requests: cfg.Requests}.Put(w)
		})
		if err == nil {
			break
		}
		if resp != nil {
			return nil, cl.Errf(cl.CodeOf(err), "device manager rejected request: %s", resp.String())
		}
		p.dropManagerConn(manager, c)
		if kept && errors.Is(err, rpc.ErrLost) {
			continue // the kept link had died since its last use: dial once
		}
		// A shard that crashed mid-acquire included: InvalidServer makes
		// the candidate loop in RequestFromManager advance to the next
		// shard of the tenant's permutation.
		return nil, cl.Errf(cl.InvalidServer, "device manager %s: %v", manager, err)
	}
	authID := resp.String()
	serverAddrs := resp.Strings()
	// Each server's leased devices, as the manager registered them.
	recs := make([][]protocol.DeviceRecord, len(serverAddrs))
	for i := range recs {
		recs[i] = protocol.GetDeviceRecords(resp)
	}
	if resp.Err() != nil {
		return nil, cl.Errf(cl.InvalidServer, "malformed device manager response")
	}
	// The grant carries the shard's membership view — a free refresh.
	if view := protocol.GetShardMap(resp); resp.Err() == nil {
		p.noteShardView(view)
	}

	lease := &Lease{AuthID: authID, ManagerAddr: manager, plat: p}
	for i, addr := range serverAddrs {
		s, err := p.leaseServer(addr, authID, recs[i])
		if err != nil {
			_ = lease.Release() // the connect failure is the one to report
			return nil, err
		}
		lease.Servers = append(lease.Servers, s)
	}
	return lease, nil
}

// Release returns the lease's devices to the device manager (the release
// message of Section IV-C) and ends the lease on its servers: each daemon
// session releases every object of the lease, and the link is kept for the
// platform's next lease on that daemon (Platform.endLease). If the
// granting shard cannot be reached, the release is broadcast to the
// surviving shards: whichever shard adopted the devices (rendezvous
// re-homing) holds the lease record and frees them; the others ignore the
// unknown auth ID.
func (l *Lease) Release() error {
	release := func(addr string) error {
		c, _, err := l.plat.managerConn(addr)
		if err != nil {
			return err
		}
		err = c.OneWay(protocol.MsgDMReleaseLease, func(w *protocol.Writer) { w.String(l.AuthID) })
		if err != nil {
			l.plat.dropManagerConn(addr, c)
		}
		return err
	}
	err := release(l.ManagerAddr)
	if err != nil {
		_, shards := l.plat.ShardView()
		for _, addr := range shards {
			if release(addr) == nil {
				err = nil
			}
		}
	}
	for _, s := range l.Servers {
		if derr := l.plat.endLease(s, l.AuthID); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}
