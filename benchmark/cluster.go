package main

import (
	"fmt"
	"net"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
)

// The system under test is deployed the way dcld deployments are: real
// daemons behind TCP listeners on 127.0.0.1, real client platforms
// dialing them. Loopback is not a real link — throughput read here is
// loopback throughput — but it is the same code path (gcf framing,
// writev, kernel socket buffers) a networked deployment runs.

const transport = "tcp-loopback"

// benchDevice is the one device shape every workload uses: real
// execution on the MiniCL VM with one worker, so a daemon never uses more
// than one core and two daemons can run side by side on the 2-core
// reference host.
func benchDevice(name string, typ cl.DeviceType) device.Config {
	return device.Config{
		Name: name, Vendor: "dOpenCL benchmark", Type: typ,
		ComputeUnits: 1, ClockMHz: 1000, GlobalMemSize: 1 << 30,
		Mode: device.ExecReal, Workers: 1,
	}
}

// wires groups the traffic counters of a traced cluster.
type wires struct {
	client     wire // client-side of client↔daemon connections (dialer)
	daemon     wire // daemon-side of the same connections (listener)
	peerDial   wire // outbound daemon→daemon peer connections
	peerListen wire // inbound side of the peer connections
}

// clusterSpec describes a deployment.
type clusterSpec struct {
	daemons       int
	devsPerDaemon int
	devType       cl.DeviceType
	peers         bool // daemon-to-daemon data plane (PeerAddr/ServePeers)
	managed       bool // lease-gated daemons (device-manager mode)
	serveMaxBatch int
	w             *wires // non-nil: count traffic (traced runs)
}

// node is one running daemon.
type node struct {
	d      *daemon.Daemon
	addr   string
	ln     net.Listener
	peerLn net.Listener
}

// cluster is a set of running daemons.
type cluster struct {
	spec  clusterSpec
	nodes []*node
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startCluster boots the daemons. Callers stop it with close.
func startCluster(spec clusterSpec) (*cluster, error) {
	if spec.devsPerDaemon <= 0 {
		spec.devsPerDaemon = 1
	}
	c := &cluster{spec: spec}
	for i := 0; i < spec.daemons; i++ {
		ln, err := listenLoopback()
		if err != nil {
			c.close()
			return nil, err
		}
		n := &node{addr: ln.Addr().String(), ln: ln}
		c.nodes = append(c.nodes, n)
		cfgs := make([]device.Config, spec.devsPerDaemon)
		for u := range cfgs {
			cfgs[u] = benchDevice(fmt.Sprintf("dev%d.%d", i, u), spec.devType)
		}
		dcfg := daemon.Config{
			Name:          n.addr,
			Platform:      native.NewPlatform("native-"+n.addr, "benchmark", cfgs),
			Managed:       spec.managed,
			ServeMaxBatch: spec.serveMaxBatch,
		}
		if spec.peers {
			pl, err := listenLoopback()
			if err != nil {
				c.close()
				return nil, err
			}
			n.peerLn = pl
			dcfg.PeerAddr = pl.Addr().String()
			var pw *wire
			if spec.w != nil {
				pw = &spec.w.peerDial
			}
			dcfg.PeerDial = func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				return counted(conn, pw), err
			}
		}
		d, err := daemon.New(dcfg)
		if err != nil {
			c.close()
			return nil, err
		}
		n.d = d
		serveLn, peerLn := n.ln, n.peerLn
		if spec.w != nil {
			serveLn = &countedListener{Listener: serveLn, w: &spec.w.daemon}
			if peerLn != nil {
				peerLn = &countedListener{Listener: peerLn, w: &spec.w.peerListen}
			}
		}
		// Serve returns when close() closes the listener.
		go func() { _ = d.Serve(serveLn) }()
		if peerLn != nil {
			go func() { _ = d.ServePeers(peerLn) }()
		}
	}
	return c, nil
}

// dialer returns the client-side dial function for this cluster.
func (c *cluster) dialer() client.Dialer {
	var cw *wire
	if c.spec.w != nil {
		cw = &c.spec.w.client
	}
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		return counted(conn, cw), err
	}
}

// connect creates a client platform connected to every daemon.
func (c *cluster) connect(name string) (*client.Platform, error) {
	plat := client.NewPlatform(client.Options{Dialer: c.dialer(), ClientName: name})
	for _, n := range c.nodes {
		if _, err := plat.ConnectServer(n.addr); err != nil {
			disconnect(plat)
			return nil, err
		}
	}
	return plat, nil
}

// disconnect drops every server connection of a platform.
func disconnect(plat *client.Platform) {
	for _, s := range plat.Servers() {
		_ = plat.DisconnectServer(s) // the server is in the list we just read
	}
}

// close stops accepting connections. Sessions end when their clients
// disconnect; the daemon type has no stop method of its own.
func (c *cluster) close() {
	for _, n := range c.nodes {
		if n.ln != nil {
			_ = n.ln.Close()
		}
		if n.peerLn != nil {
			_ = n.peerLn.Close()
		}
	}
}

// stack is one configuration a workload runs on: a platform (native or
// dOpenCL) plus its devices and what to tear down afterwards.
type stack struct {
	label string
	plat  cl.Platform
	devs  []cl.Device
	cl    *cluster         // nil for native
	cplat *client.Platform // nil for native
}

// nativeStack is the vendor-runtime baseline: the same device, no
// client, daemon or transport.
func nativeStack(typ cl.DeviceType) (*stack, error) {
	plat := native.NewPlatform("native", "benchmark", []device.Config{benchDevice("dev0.0", typ)})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		return nil, err
	}
	return &stack{label: "native", plat: plat, devs: devs}, nil
}

// dclStack boots a cluster and connects one client to it.
func dclStack(label string, spec clusterSpec) (*stack, error) {
	c, err := startCluster(spec)
	if err != nil {
		return nil, err
	}
	plat, err := c.connect("benchmark-" + label)
	if err != nil {
		c.close()
		return nil, err
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		disconnect(plat)
		c.close()
		return nil, err
	}
	return &stack{label: label, plat: plat, devs: devs, cl: c, cplat: plat}, nil
}

func (s *stack) close() {
	if s == nil {
		return
	}
	if s.cplat != nil {
		disconnect(s.cplat)
	}
	if s.cl != nil {
		s.cl.close()
	}
}
