package devmgr

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// TestOwnerMinimalMovement pins the rendezvous-hashing property the
// re-homing design depends on: removing one shard moves exactly the
// keys that shard owned — every other key keeps its owner.
func TestOwnerMinimalMovement(t *testing.T) {
	shards := []string{"shard-a", "shard-b", "shard-c"}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = protocol.DeviceID(fmt.Sprintf("node%d", i%17), uint32(i))
	}
	before := map[string]string{}
	counts := map[string]int{}
	for _, k := range keys {
		before[k] = protocol.Owner(shards, k)
		counts[before[k]]++
	}
	// Sanity: all three shards own a nontrivial slice.
	for _, s := range shards {
		if counts[s] == 0 {
			t.Fatalf("shard %s owns no keys of %d", s, len(keys))
		}
	}
	survivors := []string{"shard-a", "shard-c"}
	for _, k := range keys {
		after := protocol.Owner(survivors, k)
		if before[k] != "shard-b" && after != before[k] {
			t.Fatalf("key %s moved %s→%s though its owner survived", k, before[k], after)
		}
		if before[k] == "shard-b" && (after != "shard-a" && after != "shard-c") {
			t.Fatalf("orphaned key %s re-homed to %q", k, after)
		}
	}
}

// TestShardOrderIsOwnerFirstPermutation: ShardOrder returns a complete
// permutation with the rendezvous owner first, and distinct tenants get
// distinct permutations (load spreading).
func TestShardOrderIsOwnerFirstPermutation(t *testing.T) {
	shards := []string{"s1", "s2", "s3", "s4", "s5"}
	firsts := map[string]bool{}
	for i := 0; i < 300; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		order := protocol.ShardOrder(shards, tenant)
		if len(order) != len(shards) {
			t.Fatalf("order %v is not a permutation of %v", order, shards)
		}
		seen := map[string]bool{}
		for _, s := range order {
			seen[s] = true
		}
		if len(seen) != len(shards) {
			t.Fatalf("order %v repeats shards", order)
		}
		if order[0] != protocol.Owner(shards, tenant) {
			t.Fatalf("order head %s != owner %s", order[0], protocol.Owner(shards, tenant))
		}
		firsts[order[0]] = true
	}
	if len(firsts) < 3 {
		t.Fatalf("300 tenants started on only %d shards — no spread", len(firsts))
	}
}

// gossipWorld wires n sharded managers over simnet with gossip running.
func gossipWorld(t *testing.T, n int) (*simnet.Network, []*Manager, []string, []func()) {
	t.Helper()
	nw := simnet.NewNetwork(simnet.Unlimited())
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard-%c", 'a'+i)
	}
	var ms []*Manager
	var stops []func()
	for _, self := range addrs {
		self := self
		m := New(WithShard(self, addrs, func(a string) (net.Conn, error) {
			return nw.DialFrom(self+"/g", a)
		}))
		lis, err := nw.Listen(self)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = m.Serve(lis) }()
		stopG := m.StartGossip(10*time.Millisecond, 50*time.Millisecond)
		ms = append(ms, m)
		stops = append(stops, func() { stopG(); lis.Close(); m.Close() })
	}
	return nw, ms, addrs, stops
}

// TestGossipDeathAndResurrection: severing a shard makes the survivors
// declare it dead within gossipMissLimit rounds (epoch bump, view
// shrinks); healing it resurrects it with a further bump.
func TestGossipDeathAndResurrection(t *testing.T) {
	nw, ms, addrs, stops := gossipWorld(t, 3)
	defer func() {
		for _, s := range stops {
			s()
		}
	}()

	// All three converge on the full view.
	waitView(t, ms[0], 3)
	waitView(t, ms[1], 3)
	waitView(t, ms[2], 3)
	epoch0 := ms[0].ShardMap().Epoch

	// Kill shard-c's connectivity (both its listener identity and its
	// gossip dial identity).
	nw.SeverNode(addrs[2])
	nw.SeverNode(addrs[2] + "/g")

	waitView(t, ms[0], 2)
	waitView(t, ms[1], 2)
	if e := ms[0].ShardMap().Epoch; e <= epoch0 {
		t.Fatalf("death did not bump epoch: %d → %d", epoch0, e)
	}
	for _, s := range ms[0].ShardMap().Shards {
		if s == addrs[2] {
			t.Fatalf("dead shard still in view %v", ms[0].ShardMap().Shards)
		}
	}

	// Heal: the dead shard answers gossip again and is resurrected.
	nw.HealNode(addrs[2])
	nw.HealNode(addrs[2] + "/g")
	waitView(t, ms[0], 3)
	waitView(t, ms[1], 3)
	waitView(t, ms[2], 3)
}

func waitView(t *testing.T, m *Manager, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.ShardMap().Shards) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("view %v never reached %d shards", m.ShardMap().Shards, want)
}

// TestCheckHealthBoundedFanout: health probes run concurrently (a hung
// daemon must not serialize the sweep) but never exceed the fan-out
// bound.
func TestCheckHealthBoundedFanout(t *testing.T) {
	nw := simnet.NewNetwork(simnet.Unlimited())
	m := New()
	defer m.Close()
	lis, err := nw.Listen("mgr")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = m.Serve(lis) }()

	var cur, peak atomic.Int32
	const daemons = 2 * probeFanout
	for i := 0; i < daemons; i++ {
		addr := fmt.Sprintf("fake-%d", i)
		conn, err := nw.DialFrom(addr, "mgr")
		if err != nil {
			t.Fatal(err)
		}
		ep := gcf.NewEndpoint(conn, true)
		regCh := make(chan struct{}, 1)
		ep.Start(func(msg []byte) {
			env, perr := protocol.ParseEnvelope(msg)
			if perr != nil {
				return
			}
			switch {
			case env.Class == protocol.ClassResponse:
				select {
				case regCh <- struct{}{}:
				default:
				}
			case env.Type == protocol.MsgDMPing && env.Class == protocol.ClassRequest:
				// Track probe concurrency, answer slowly.
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(10 * time.Millisecond)
				cur.Add(-1)
				w := protocol.NewWriter()
				w.I32(int32(cl.Success))
				_ = ep.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w))
			}
		}, nil)
		w := protocol.NewWriter()
		w.String(addr)
		w.String("")
		protocol.PutDeviceRecords(w, []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
		w.Strings([]string{""})
		if err := ep.Send(protocol.EncodeEnvelope(protocol.ClassRequest, 1, protocol.MsgDMRegisterServer, w)); err != nil {
			t.Fatal(err)
		}
		<-regCh
	}

	start := time.Now()
	evicted := m.CheckHealth(2 * time.Second)
	took := time.Since(start)
	if len(evicted) != 0 {
		t.Fatalf("healthy daemons evicted: %v", evicted)
	}
	if p := peak.Load(); p > probeFanout {
		t.Fatalf("probe fan-out %d exceeded bound %d", p, probeFanout)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("probes never ran concurrently (peak %d)", p)
	}
	// 32 probes × 10ms at fan-out 16 ≈ 20ms; serial would be ≥320ms. Allow
	// generous slack but require better than fully serial.
	if took > 200*time.Millisecond {
		t.Fatalf("sweep took %s — probes look serialized", took)
	}
}
