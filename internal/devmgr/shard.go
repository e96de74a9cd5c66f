package devmgr

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// gossipMissLimit mirrors healthMissLimit for shard-to-shard probes: a
// peer missing this many consecutive gossip rounds is declared dead and
// the membership epoch bumps.
const gossipMissLimit = 2

// shardState is a Manager's membership role in a sharded control plane:
// its own address, the configured member set, the live view, and the
// epoch that bumps on every view change.
type shardState struct {
	self    string
	members []string // configured member set, sorted, including self
	dial    func(addr string) (net.Conn, error)

	mu     sync.Mutex
	epoch  uint64
	live   map[string]bool
	misses map[string]int
	peers  map[string]*rpc.Conn // gossip links to other shards
	stop   chan struct{}
	once   sync.Once
}

// WithShard makes the manager one member of a sharded control plane:
// self is this instance's address as the other members (and daemons and
// clients) reach it, members the full configured shard set, and dial how
// this instance reaches its peers for gossip. Call StartGossip to begin
// exchanging membership views.
func WithShard(self string, members []string, dial func(addr string) (net.Conn, error)) Option {
	return func(m *Manager) {
		set := map[string]bool{self: true}
		for _, a := range members {
			set[a] = true
		}
		all := make([]string, 0, len(set))
		for a := range set {
			all = append(all, a)
		}
		sort.Strings(all)
		live := make(map[string]bool, len(all))
		for _, a := range all {
			live[a] = true
		}
		m.shard = &shardState{
			self:    self,
			members: all,
			dial:    dial,
			epoch:   1,
			live:    live,
			misses:  map[string]int{},
			peers:   map[string]*rpc.Conn{},
			stop:    make(chan struct{}),
		}
	}
}

// ShardMap returns the manager's current membership view. An unsharded
// manager reports epoch 1 and no shard list: clients treat an empty list
// as "the address I connected to is the whole control plane".
func (m *Manager) ShardMap() protocol.ShardMap {
	if m.shard == nil {
		return protocol.ShardMap{Epoch: 1}
	}
	return m.shard.view()
}

func (s *shardState) view() protocol.ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked()
}

func (s *shardState) viewLocked() protocol.ShardMap {
	shards := make([]string, 0, len(s.live))
	for a, ok := range s.live {
		if ok {
			shards = append(shards, a)
		}
	}
	sort.Strings(shards)
	return protocol.ShardMap{Epoch: s.epoch, Shards: shards}
}

// StartGossip begins the shard-to-shard health exchange: every interval
// the manager sends its membership view to each configured peer and
// merges the responses; a peer that misses gossipMissLimit consecutive
// rounds is declared dead (epoch bump, pushed to daemons and clients so
// they re-home and re-route). The returned stop function halts the loop.
func (m *Manager) StartGossip(interval, timeout time.Duration) (stop func()) {
	s := m.shard
	if s == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-s.stop:
				return
			case <-t.C:
				m.gossipRound(timeout)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// gossipRound probes every configured peer (dead ones too — they may
// have come back) and merges views.
func (m *Manager) gossipRound(timeout time.Duration) {
	s := m.shard
	s.mu.Lock()
	peers := make([]string, 0, len(s.members))
	for _, a := range s.members {
		if a != s.self {
			peers = append(peers, a)
		}
	}
	local := s.viewLocked()
	s.mu.Unlock()

	for _, addr := range peers {
		remote, err := m.gossipWith(addr, local, timeout)
		if err != nil {
			m.noteGossipMiss(addr)
			continue
		}
		m.mergeView(addr, remote)
	}
}

// gossipWith performs one gossip exchange with a peer, dialing a link on
// demand.
func (m *Manager) gossipWith(addr string, local protocol.ShardMap, timeout time.Duration) (protocol.ShardMap, error) {
	s := m.shard
	s.mu.Lock()
	pc := s.peers[addr]
	s.mu.Unlock()
	if pc == nil {
		conn, err := s.dial(addr)
		if err != nil {
			return protocol.ShardMap{}, err
		}
		fresh := rpc.New(gcf.NewEndpoint(conn, true))
		fresh.Start(nil, func(error) {
			s.mu.Lock()
			if s.peers[addr] == fresh {
				delete(s.peers, addr)
			}
			s.mu.Unlock()
		})
		s.mu.Lock()
		if pc = s.peers[addr]; pc == nil {
			pc = fresh
			s.peers[addr] = pc
		}
		s.mu.Unlock()
		if pc != fresh {
			fresh.Close()
		}
	}
	resp, err := pc.Call(protocol.MsgDMGossip, timeout, func(w *protocol.Writer) {
		protocol.Gossip{From: s.self, View: local}.Put(w)
	})
	if err != nil {
		return protocol.ShardMap{}, fmt.Errorf("gossip with %s: %w", addr, err)
	}
	remote := protocol.GetShardMap(resp)
	return remote, resp.Err()
}

// noteGossipMiss counts a failed probe; at the limit the peer is
// declared dead and the epoch bumps.
func (m *Manager) noteGossipMiss(addr string) {
	s := m.shard
	s.mu.Lock()
	s.misses[addr]++
	bump := false
	if s.misses[addr] >= gossipMissLimit && s.live[addr] {
		s.live[addr] = false
		s.epoch++
		s.misses[addr] = 0
		bump = true
	}
	view := s.viewLocked()
	s.mu.Unlock()
	if bump {
		m.log("devmgr[%s]: shard %s declared dead, epoch %d view %v", s.self, addr, view.Epoch, view.Shards)
		m.notifyEpoch(view)
	}
}

// mergeView reconciles a peer's view with ours: a strictly higher remote
// epoch is adopted wholesale (with self forced alive — we are
// demonstrably running), and a peer we had declared dead that answers is
// resurrected with a fresh bump so the correction propagates.
func (m *Manager) mergeView(from string, remote protocol.ShardMap) {
	s := m.shard
	s.mu.Lock()
	changed := false
	if remote.Epoch > s.epoch {
		s.epoch = remote.Epoch
		next := map[string]bool{}
		for _, a := range s.members {
			next[a] = false
		}
		for _, a := range remote.Shards {
			next[a] = true
		}
		if !next[s.self] {
			next[s.self] = true
			s.epoch++
		}
		s.live = next
		changed = true
	}
	s.misses[from] = 0
	if !s.live[from] {
		s.live[from] = true
		s.epoch++
		changed = true
	}
	view := s.viewLocked()
	s.mu.Unlock()
	if changed {
		m.log("devmgr[%s]: merged view from %s: epoch %d view %v", s.self, from, view.Epoch, view.Shards)
		m.notifyEpoch(view)
	}
}

// handleGossip answers a peer's gossip request with our view, merging
// theirs first.
func (m *Manager) handleGossip(call rpc.Call) {
	g := protocol.GetGossip(call.Body)
	if call.Body.Err() != nil || m.shard == nil {
		call.Refuse(cl.InvalidValue)
		return
	}
	m.mergeView(g.From, g.View)
	call.Reply(cl.Success, m.ShardMap().Put)
}

// notifyEpoch pushes the new shard map to every registered daemon and
// every connected client as a one-way MsgDMPing whose body carries the
// epoch and membership — the "epoch bump rides the ping plumbing"
// refresh path. Receivers that miss it still converge via the epoch
// carried on periodic health probes.
func (m *Manager) notifyEpoch(view protocol.ShardMap) {
	for _, c := range m.conns() {
		if err := c.OneWay(protocol.MsgDMPing, view.Put); err != nil {
			m.log("devmgr: epoch push failed: %v", err)
		}
	}
}

// closeShard tears down gossip links on Manager.Close.
func (s *shardState) close() {
	s.once.Do(func() { close(s.stop) })
	s.mu.Lock()
	peers := s.peers
	s.peers = map[string]*rpc.Conn{}
	s.mu.Unlock()
	for _, pc := range peers {
		pc.Close()
	}
}
