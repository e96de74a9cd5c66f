// Package chaos is the deterministic fault harness behind the
// daemon-failure resilience guarantees: an in-memory cluster of dOpenCL
// daemons over simnet whose failures — daemon kills and restarts,
// severed and healed links, silent stalls, delay spikes — are injected
// from a seed-driven plan bound to operation indices, not wall-clock
// timers, so a failing schedule replays bit-identically.
//
// Two pieces compose:
//
//   - Cluster owns the simnet network and the daemon processes, with
//     Kill/Restart (a crash loses device memory; the restarted daemon is
//     empty and clients re-create their objects on re-attach) and
//     SeverClientLink/HealClientLink (a connection blip; a daemon with
//     session retention keeps the client's state, so a re-attach finds
//     buffers — and their data — intact).
//   - Plan derives a fault schedule from a seed: each fault fires before
//     a specific operation index. Tests call Plan.Due between operations
//     and mirror the applied faults into their oracle.
//
// The chaos property suite (chaos_test.go) runs randomized programs
// against a fault-free oracle; the recovery guarantees it pins are
// documented in the README's "Failure semantics" section.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
)

// ClientID is the simnet endpoint identity of the cluster's client.
const ClientID = "chaos-client"

// PeerAddrOf returns a daemon's peer data-plane address.
func PeerAddrOf(addr string) string { return addr + "/peer" }

// Node is one daemon slot of the cluster.
type Node struct {
	Addr string
	cfgs []device.Config

	mu    sync.Mutex
	d     *daemon.Daemon
	lis   net.Listener
	plis  net.Listener
	alive bool
	// incarnation counts (re)starts: restarting builds a fresh native
	// platform, modeling a crash that lost device memory.
	incarnation int
}

// Alive reports whether the node's daemon is currently running.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Daemon returns the node's current daemon instance (nil when killed).
func (n *Node) Daemon() *daemon.Daemon {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.d
}

// Cluster is a simnet-backed daemon fleet with fault injection.
type Cluster struct {
	Net     *simnet.Network
	link    simnet.LinkConfig
	retain  time.Duration
	managed bool

	mu    sync.Mutex
	nodes map[string]*Node
	addrs []string // sorted, for deterministic iteration
}

// Options configures a Cluster.
type Options struct {
	// Link is the modeled network link (default: Unlimited).
	Link simnet.LinkConfig
	// SessionRetain is forwarded to every daemon: how long a detached
	// session's state survives awaiting re-attachment.
	SessionRetain time.Duration
	// Managed runs the daemons in device-manager mode (control-plane
	// chaos tests pair this with a ControlCluster of devmgr shards).
	Managed bool
}

// NewCluster starts one daemon per entry, peer plane enabled.
func NewCluster(opts Options, nodes map[string][]device.Config) (*Cluster, error) {
	c := &Cluster{
		Net:     simnet.NewNetwork(opts.Link),
		link:    opts.Link,
		retain:  opts.SessionRetain,
		managed: opts.Managed,
		nodes:   map[string]*Node{},
	}
	for addr, cfgs := range nodes {
		n := &Node{Addr: addr, cfgs: cfgs}
		c.nodes[addr] = n
		c.addrs = append(c.addrs, addr)
	}
	sort.Strings(c.addrs)
	for _, addr := range c.addrs {
		if err := c.start(c.nodes[addr]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// start boots (or reboots) a node's daemon with a fresh native platform.
func (c *Cluster) start(n *Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		return fmt.Errorf("chaos: node %s already running", n.Addr)
	}
	n.incarnation++
	np := native.NewPlatform(fmt.Sprintf("native-%s-%d", n.Addr, n.incarnation), "chaos", n.cfgs)
	addr := n.Addr
	cfg := daemon.Config{
		Name:          addr,
		Platform:      np,
		Managed:       c.managed,
		PeerAddr:      PeerAddrOf(addr),
		PeerDial:      func(a string) (net.Conn, error) { return c.Net.DialFrom(addr, a) },
		SessionRetain: c.retain,
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	lis, err := c.Net.Listen(addr)
	if err != nil {
		return err
	}
	plis, err := c.Net.Listen(PeerAddrOf(addr))
	if err != nil {
		lis.Close()
		return err
	}
	go func() { _ = d.Serve(lis) }()
	go func() { _ = d.ServePeers(plis) }()
	n.d, n.lis, n.plis, n.alive = d, lis, plis, true
	return nil
}

// NewPlatform builds a client platform dialing this cluster. Heartbeat
// settings are passed through so tests can bound silent-partition
// detection.
func (c *Cluster) NewPlatform(hbInterval, hbTimeout time.Duration) *client.Platform {
	return client.NewPlatform(client.Options{
		Dialer:            func(addr string) (net.Conn, error) { return c.Net.DialFrom(ClientID, addr) },
		ClientName:        "chaos",
		HeartbeatInterval: hbInterval,
		HeartbeatTimeout:  hbTimeout,
	})
}

// Node returns the named node.
func (c *Cluster) Node(addr string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[addr]
}

// Addrs returns the node addresses in sorted order.
func (c *Cluster) Addrs() []string {
	return append([]string(nil), c.addrs...)
}

// Kill crashes a daemon: every connection it holds (client sessions,
// peer links, both planes) drops and its listeners close. Device memory
// — and with it every session's buffer contents — is gone; a later
// Restart brings up an empty daemon.
func (c *Cluster) Kill(addr string) {
	n := c.Node(addr)
	if n == nil {
		return
	}
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	n.alive = false
	lis, plis := n.lis, n.plis
	n.d, n.lis, n.plis = nil, nil, nil
	n.mu.Unlock()
	lis.Close()
	plis.Close()
	c.Net.SeverNode(addr)
	c.Net.SeverNode(PeerAddrOf(addr))
}

// Restart boots a killed daemon back up at the same address, empty.
func (c *Cluster) Restart(addr string) error {
	n := c.Node(addr)
	if n == nil {
		return fmt.Errorf("chaos: unknown node %s", addr)
	}
	c.Net.HealNode(addr)
	c.Net.HealNode(PeerAddrOf(addr))
	return c.start(n)
}

// SeverClientLink cuts the client↔daemon control link (the daemon keeps
// running — sessions detach and are retained). Peer links are untouched.
func (c *Cluster) SeverClientLink(addr string) {
	c.Net.Sever(ClientID, addr)
}

// HealClientLink allows fresh client dials to the daemon again.
func (c *Cluster) HealClientLink(addr string) {
	c.Net.Heal(ClientID, addr)
}

// DelaySpike arms a one-shot latency spike on the client→daemon
// direction at the given cumulative byte offset.
func (c *Cluster) DelaySpike(addr string, atBytes int64, extra time.Duration) {
	c.Net.InjectDelayAt(ClientID, addr, atBytes, extra)
}

// ---------------------------------------------------------------------------
// Seed-driven fault plans.

// FaultKind enumerates injectable faults.
type FaultKind int

// Fault kinds. Kill crashes a daemon (device memory gone); Restart
// boots it back up empty; BlipLink severs the client link and heals it
// (a daemon with session retention keeps the client's state, so a
// re-attach recovers everything); Spike arms a one-shot delay spike
// (latency only — results must be unaffected).
const (
	Kill FaultKind = iota
	Restart
	BlipLink
	Spike
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Restart:
		return "restart"
	case BlipLink:
		return "blip"
	case Spike:
		return "spike"
	}
	return "fault(?)"
}

// Fault is one scheduled fault: applied before operation AfterOp.
type Fault struct {
	AfterOp int
	Kind    FaultKind
	Target  string // node address
}

// Plan is a deterministic fault schedule, sorted by AfterOp.
type Plan struct {
	Faults []Fault
	next   int
}

// NewPlan derives a fault schedule from the seed for a program of numOps
// operations over the given nodes: one kill (with a restart a few ops
// later), one link blip, and a couple of delay spikes, all at
// seed-chosen operation indices. The same seed always yields the same
// schedule.
func NewPlan(seed int64, numOps int, nodes []string) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if numOps < 8 {
		numOps = 8
	}
	var fs []Fault
	victim := nodes[rng.Intn(len(nodes))]
	killAt := 2 + rng.Intn(numOps/2)
	restartAt := killAt + 2 + rng.Intn(numOps/4)
	fs = append(fs,
		Fault{AfterOp: killAt, Kind: Kill, Target: victim},
		Fault{AfterOp: restartAt, Kind: Restart, Target: victim},
	)
	blipTarget := nodes[rng.Intn(len(nodes))]
	fs = append(fs, Fault{AfterOp: rng.Intn(numOps), Kind: BlipLink, Target: blipTarget})
	for i := 0; i < 2; i++ {
		fs = append(fs, Fault{AfterOp: rng.Intn(numOps), Kind: Spike, Target: nodes[rng.Intn(len(nodes))]})
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].AfterOp < fs[j].AfterOp })
	return &Plan{Faults: fs}
}

// Due pops the faults scheduled before operation op (call once per
// operation, in order). The caller applies them via Cluster and mirrors
// their effect into its oracle.
func (p *Plan) Due(op int) []Fault {
	var due []Fault
	for p.next < len(p.Faults) && p.Faults[p.next].AfterOp <= op {
		due = append(due, p.Faults[p.next])
		p.next++
	}
	return due
}
