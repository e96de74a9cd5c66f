// Package testbed is the one in-memory cluster every suite, figure and
// example that runs dOpenCL end to end starts: daemons of given device
// configs on a simnet fabric, optional device-manager shards (Fig. 2: each
// daemon registers its devices with the manager) and an optional peer data
// plane, with the fault verbs the chaos suites drive — a node or a shard
// killed and restarted, a link severed and healed.
//
// A managed node always joins the control plane through
// daemon.JoinControlPlane with every shard as a seed. One shard runs
// unsharded, the way dcldevmgr runs without -shards; two or more run as
// gossiping shard members.
//
// The testbed hands out dialers and never builds a client itself, so the
// client's own in-package tests can use it.
package testbed

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/devmgr"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
)

// Control-plane timing: fast convergence for in-memory clusters.
const (
	gossipInterval = 20 * time.Millisecond
	gossipTimeout  = 100 * time.Millisecond
	retryMin       = 10 * time.Millisecond
	retryMax       = 200 * time.Millisecond
)

// Spec describes a cluster.
type Spec struct {
	// Link is the modeled link every dial uses (the zero value is
	// unlimited).
	Link simnet.LinkConfig
	// Nodes maps each daemon's address to the devices it exposes.
	Nodes map[string][]device.Config
	// Shards are the device-manager addresses. Empty runs the daemons
	// unmanaged.
	Shards []string
	// Retain is every daemon's session retention (daemon.Config's
	// SessionRetain).
	Retain time.Duration
	// Peers enables the daemon-to-daemon data plane at PeerAddr(addr).
	Peers bool
}

// PeerAddr is the address of a node's peer data plane.
func PeerAddr(addr string) string { return addr + "/peer" }

// gossipAddr is the identity a shard dials its peers from.
func gossipAddr(addr string) string { return addr + "/gossip" }

// Testbed is a running cluster.
type Testbed struct {
	// Net is the fabric: link models, byte counts and fault injection.
	Net *simnet.Network

	spec  Spec
	addrs []string // sorted node addresses

	mu     sync.Mutex
	nodes  map[string]*node
	shards map[string]*shard
}

// node is one daemon slot; d is nil while the node is down.
type node struct {
	d         *daemon.Daemon
	lis, plis net.Listener
	leave     func() // leaves the control plane
	// incarnation counts starts: each builds a fresh native platform, so
	// a restarted node has lost its device memory.
	incarnation int
}

// shard is one device-manager slot; m is nil while the shard is down.
type shard struct {
	m          *devmgr.Manager
	lis        net.Listener
	stopGossip func()
}

// Start boots the shards, then the nodes. On an error it stops everything
// it started.
func Start(spec Spec) (*Testbed, error) {
	tb := &Testbed{
		Net:    simnet.NewNetwork(spec.Link),
		spec:   spec,
		nodes:  map[string]*node{},
		shards: map[string]*shard{},
	}
	for addr := range spec.Nodes {
		tb.addrs = append(tb.addrs, addr)
		tb.nodes[addr] = &node{}
	}
	sort.Strings(tb.addrs)
	for _, addr := range spec.Shards {
		tb.shards[addr] = &shard{}
	}
	for _, addr := range spec.Shards {
		if err := tb.startShard(addr); err != nil {
			tb.Close()
			return nil, err
		}
	}
	for _, addr := range tb.addrs {
		if err := tb.startNode(addr); err != nil {
			tb.Close()
			return nil, err
		}
	}
	return tb, nil
}

// TB is the part of testing.TB that StartTest uses.
type TB interface {
	Helper()
	Fatal(args ...any)
	Cleanup(func())
}

// StartTest is Start for a test or benchmark: an error fails it, and the
// testbed closes when it ends.
func StartTest(t TB, spec Spec) *Testbed {
	t.Helper()
	tb, err := Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// startNode boots a node's daemon with a fresh native platform. What it
// started before an error is stopped again.
func (tb *Testbed) startNode(addr string) (err error) {
	n := tb.nodes[addr]
	n.incarnation++
	defer func() {
		if err != nil {
			tb.stopNode(n)
		}
	}()
	managed := len(tb.spec.Shards) > 0
	cfg := daemon.Config{
		Name:          addr,
		Platform:      native.NewPlatform(fmt.Sprintf("native-%s-%d", addr, n.incarnation), "testbed", tb.spec.Nodes[addr]),
		Managed:       managed,
		SessionRetain: tb.spec.Retain,
	}
	if tb.spec.Peers {
		cfg.PeerAddr = PeerAddr(addr)
		cfg.PeerDial = tb.Dialer(addr)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	if n.lis, err = tb.Net.Listen(addr); err != nil {
		return err
	}
	n.d = d
	go func(l net.Listener) { _ = d.Serve(l) }(n.lis)
	if tb.spec.Peers {
		if n.plis, err = tb.Net.Listen(PeerAddr(addr)); err != nil {
			return err
		}
		go func(l net.Listener) { _ = d.ServePeers(l) }(n.plis)
	}
	if managed {
		n.leave, err = d.JoinControlPlane(daemon.ControlPlaneConfig{
			Dial:     tb.Dialer(addr),
			Seeds:    tb.spec.Shards,
			SelfAddr: addr,
			RetryMin: retryMin,
			RetryMax: retryMax,
		})
	}
	return err
}

// stopNode leaves the control plane and closes the node's listeners.
func (tb *Testbed) stopNode(n *node) {
	if n.leave != nil {
		n.leave()
	}
	for _, l := range []net.Listener{n.lis, n.plis} {
		if l != nil {
			l.Close()
		}
	}
	n.d, n.lis, n.plis, n.leave = nil, nil, nil, nil
}

// startShard boots one device manager, empty.
func (tb *Testbed) startShard(addr string) (err error) {
	s := tb.shards[addr]
	var opts []devmgr.Option
	if len(tb.spec.Shards) > 1 {
		opts = append(opts, devmgr.WithShard(addr, tb.spec.Shards, tb.Dialer(gossipAddr(addr))))
	}
	s.m = devmgr.New(opts...)
	if s.lis, err = tb.Net.Listen(addr); err != nil {
		tb.stopShard(s)
		return err
	}
	go func(m *devmgr.Manager, l net.Listener) { _ = m.Serve(l) }(s.m, s.lis)
	if len(tb.spec.Shards) > 1 {
		s.stopGossip = s.m.StartGossip(gossipInterval, gossipTimeout)
	}
	return nil
}

// stopShard stops a manager's gossip, listener, workers and links.
func (tb *Testbed) stopShard(s *shard) {
	if s.stopGossip != nil {
		s.stopGossip()
	}
	if s.lis != nil {
		s.lis.Close()
	}
	if s.m != nil {
		s.m.Close()
	}
	s.m, s.lis, s.stopGossip = nil, nil, nil
}

// Dialer returns a dial function whose connections are accounted, and
// faulted, under the caller identity from ("" dials anonymously).
func (tb *Testbed) Dialer(from string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return tb.Net.DialFrom(from, addr) }
}

// Addrs returns the node addresses, sorted.
func (tb *Testbed) Addrs() []string { return append([]string(nil), tb.addrs...) }

// Daemon returns the node's running daemon, or nil while it is down.
func (tb *Testbed) Daemon(addr string) *daemon.Daemon {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if n := tb.nodes[addr]; n != nil {
		return n.d
	}
	return nil
}

// Manager returns the shard's running manager, or nil while it is down.
func (tb *Testbed) Manager(addr string) *devmgr.Manager {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if s := tb.shards[addr]; s != nil {
		return s.m
	}
	return nil
}

// Kill crashes a node or a shard: its listeners close and every
// connection it holds drops. A killed node's device memory, and a killed
// shard's lease records, are gone.
func (tb *Testbed) Kill(addr string) {
	tb.mu.Lock()
	n, s := tb.nodes[addr], tb.shards[addr]
	switch {
	case n != nil && n.d != nil:
		tb.stopNode(n)
	case s != nil && s.m != nil:
		tb.stopShard(s)
	default:
		tb.mu.Unlock()
		return
	}
	tb.mu.Unlock()
	tb.Net.SeverNode(addr)
	if n != nil {
		tb.Net.SeverNode(PeerAddr(addr))
	} else {
		tb.Net.SeverNode(gossipAddr(addr))
	}
}

// Restart boots a killed node or shard back up at its address, empty: a
// node with a new incarnation that joins the control plane again, a shard
// that gossip brings back into the members' view.
func (tb *Testbed) Restart(addr string) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	n, s := tb.nodes[addr], tb.shards[addr]
	switch {
	case n != nil && n.d == nil:
		tb.Net.HealNode(addr)
		tb.Net.HealNode(PeerAddr(addr))
		return tb.startNode(addr)
	case s != nil && s.m == nil:
		tb.Net.HealNode(addr)
		tb.Net.HealNode(gossipAddr(addr))
		return tb.startShard(addr)
	case n != nil || s != nil:
		return fmt.Errorf("testbed: %s is running", addr)
	}
	return fmt.Errorf("testbed: unknown address %s", addr)
}

// Sever cuts every connection between the two endpoints and refuses new
// dials between them until Heal. Both keep running.
func (tb *Testbed) Sever(a, b string) { tb.Net.Sever(a, b) }

// Heal lets the two endpoints dial each other again.
func (tb *Testbed) Heal(a, b string) { tb.Net.Heal(a, b) }

// Ready waits until the running managers together hold every device of
// the running nodes. An unmanaged cluster is ready at once.
func (tb *Testbed) Ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		held, want := tb.registered()
		if held == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("testbed: managers hold %d of %d devices after %v", held, want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// registered counts the distinct devices the running managers hold and the
// devices of the running nodes.
func (tb *Testbed) registered() (held, want int) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if len(tb.shards) == 0 {
		return 0, 0
	}
	for addr, n := range tb.nodes {
		if n.d != nil {
			want += len(tb.spec.Nodes[addr])
		}
	}
	ids := map[string]bool{}
	for _, s := range tb.shards {
		if s.m != nil {
			for _, id := range s.m.DeviceIDs() {
				ids[id] = true
			}
		}
	}
	return len(ids), want
}

// Close stops every node and shard and closes every connection on the
// fabric.
func (tb *Testbed) Close() {
	tb.mu.Lock()
	for _, n := range tb.nodes {
		tb.stopNode(n)
	}
	for _, s := range tb.shards {
		tb.stopShard(s)
	}
	tb.mu.Unlock()
	tb.Net.Shutdown()
}
