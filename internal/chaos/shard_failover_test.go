package chaos

import (
	"testing"
	"time"

	"dopencl/internal/protocol"
)

// TestAcquireFailsOverWhenHomeShardDies is the end-to-end guarantee for
// the sharded control plane's acquire path: a client whose home shard
// (first in its tenant's rendezvous permutation) is killed while its
// placement request is in flight must not hang on the dead connection —
// the connection-lost notice fails the attempt, and the candidate loop
// retries on the next shard of the permutation, which grants the lease.
// This is the regression test for the acquire path blocking forever on a
// response channel whose shard died mid-request.
func TestAcquireFailsOverWhenHomeShardDies(t *testing.T) {
	cc := newControlWorld(t)
	if !WaitPartition(cc, controlShards, 10*time.Second) {
		t.Fatalf("initial partition did not converge")
	}

	const tenant = "failover-tenant"
	order := protocol.ShardOrder(controlShards, tenant)
	home, next := order[0], order[1]

	p, mc := controlPlatform(cc, tenant)
	mc = withRequests(mc, 1)

	// Baseline: with every shard healthy, the home shard serves the
	// tenant. This also caches the shard map on the platform, so the
	// failover attempt below starts straight at the home shard instead
	// of stalling in the (also-delayed) map fetch.
	lease0, err := p.RequestFromManager(mc)
	if err != nil {
		t.Fatal(err)
	}
	if lease0.ManagerAddr != home {
		t.Fatalf("healthy acquire granted by %s, want home shard %s (order %v)", lease0.ManagerAddr, home, order)
	}
	if err := lease0.Release(); err != nil {
		t.Fatalf("baseline release: %v", err)
	}
	waitCond(t, "baseline lease released", 5*time.Second, func() bool {
		return totalFree(cc, controlShards) == 12
	})

	// Stall the home shard's responses so the next request is parked
	// in flight — delivered to the shard, answer never arriving — then
	// kill the shard under it.
	cc.Net.SetExtraDelay(home, ClientID, time.Hour)
	type result struct {
		addr string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		lease, err := p.RequestFromManager(mc)
		if err != nil {
			done <- result{err: err}
			return
		}
		addr := lease.ManagerAddr
		err = lease.Release()
		done <- result{addr: addr, err: err}
	}()
	// Let the request reach the home shard before the kill: the point is
	// failing over mid-acquire, not failing a dial to a dead address.
	time.Sleep(100 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("request finished before the kill (addr=%s err=%v): home shard not stalled", r.addr, r.err)
	default:
	}
	cc.Kill(home)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("acquire after home shard kill: %v", r.err)
		}
		if r.addr != next {
			t.Fatalf("failover granted by %s, want next shard in permutation %s (order %v)", r.addr, next, order)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("acquire hung after home shard died mid-request (failover never ran)")
	}
}
