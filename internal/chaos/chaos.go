// Package chaos is the deterministic fault harness behind the
// daemon-failure resilience guarantees. Its suites run on an
// internal/testbed cluster — daemon kills and restarts, severed and
// healed links, silent stalls, delay spikes, manager shard kills — and
// inject the faults from a seed-driven plan bound to operation indices,
// not wall-clock timers, so a failing schedule replays bit-identically.
//
// What is chaos's own:
//
//   - Plan derives a fault schedule from a seed: each fault fires before
//     a specific operation index. Tests call Plan.Due between operations
//     and mirror the applied faults into their oracle. A kill crashes a
//     daemon (device memory is lost; the restarted daemon is empty and
//     clients re-create their objects on re-attach); a blip severs and
//     heals the client link (a daemon with session retention keeps the
//     client's state, so a re-attach finds buffers — and their data —
//     intact).
//   - ExpectedPartition and WaitPartition are the control plane's oracle:
//     which shard the rendezvous hash names for each device, and whether
//     the live shards hold exactly that.
//
// The chaos property suite (chaos_test.go) runs randomized programs
// against a fault-free oracle; the recovery guarantees it pins are
// documented in the README's "Failure semantics" section.
package chaos

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"dopencl/internal/protocol"
	"dopencl/internal/testbed"
)

// ClientID is the simnet endpoint identity of the suites' client.
const ClientID = "chaos-client"

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
// operation, in order). The caller applies them to its testbed and
// mirrors their effect into its oracle.
func (p *Plan) Due(op int) []Fault {
	var due []Fault
	for p.next < len(p.Faults) && p.Faults[p.next].AfterOp <= op {
		due = append(due, p.Faults[p.next])
		p.next++
	}
	return due
}

// ---------------------------------------------------------------------------
// The control plane's partition oracle.

// ExpectedPartition computes, from the given live shard set, which shard
// should own each device of the testbed's running daemons — the oracle the
// re-homing assertions compare actual shard state against.
func ExpectedPartition(tb *testbed.Testbed, liveShards []string) map[string][]string {
	want := map[string][]string{}
	for _, nodeAddr := range tb.Addrs() {
		d := tb.Daemon(nodeAddr)
		if d == nil {
			continue
		}
		for _, rec := range d.Records() {
			id := protocol.DeviceID(nodeAddr, rec.UnitID)
			owner := protocol.Owner(liveShards, id)
			if owner != "" {
				want[owner] = append(want[owner], id)
			}
		}
	}
	for _, ids := range want {
		sort.Strings(ids)
	}
	return want
}

// WaitPartition polls until every live shard's device set matches the
// expected rendezvous partition over the given live shard list, or the
// timeout elapses (returns false).
func WaitPartition(tb *testbed.Testbed, liveShards []string, timeout time.Duration) bool {
	want := ExpectedPartition(tb, liveShards)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if partitionMatches(tb, liveShards, want) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return partitionMatches(tb, liveShards, want)
}

func partitionMatches(tb *testbed.Testbed, liveShards []string, want map[string][]string) bool {
	for _, addr := range liveShards {
		m := tb.Manager(addr)
		if m == nil || !slices.Equal(m.DeviceIDs(), want[addr]) {
			return false
		}
	}
	return true
}
