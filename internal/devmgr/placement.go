package devmgr

import (
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
	"dopencl/internal/serve"
)

// Placement admission: every lease request enters a weighted fair queue
// (the serve plane's finish-time WFQ, reused verbatim) keyed by tenant,
// and a small worker pool drains it in fair order. Admission is bounded
// twice — per tenant (quota: at most maxPending grants queued per
// tenant, excess refused with typed cl.Busy so backpressure reaches the
// submitter) and globally (shed limit: past it even compliant tenants
// are refused, the load-shedding valve for overload). A tenant flooding
// placement requests therefore costs other tenants nothing: its grants
// queue behind its own virtual finish times while light tenants cut
// ahead, and its excess is refused, never buffered.
type placement struct {
	m       *Manager
	q       *serve.FairQueue[struct{}, *pendingGrant]
	workers int
	quota   uint32
	shed    int
	// hold, when non-nil, parks every worker before each Pop until the
	// channel yields or is closed. Only tests set it: with the workers
	// parked the queue fills to exactly its admission bounds.
	hold chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// pendingGrant is one queued lease request awaiting placement.
type pendingGrant struct {
	tenant string
	reqs   []protocol.DeviceRequest
	done   func(*leaseView, error)
}

// Placement bounds: per-tenant queued-grant quota, the global queue
// depth past which new requests are shed with cl.Busy, and the number of
// goroutines draining the grant queue.
const (
	tenantQuota      = 128
	shedLimit        = 4096
	placementWorkers = 4
)

func newPlacement(m *Manager) *placement {
	return &placement{
		m:       m,
		q:       serve.NewFairQueue[struct{}, *pendingGrant](),
		workers: placementWorkers,
		quota:   tenantQuota,
		shed:    shedLimit,
	}
}

func (p *placement) start() {
	p.once.Do(func() {
		for i := 0; i < p.workers; i++ {
			p.wg.Add(1)
			go p.run()
		}
	})
}

func (p *placement) run() {
	defer p.wg.Done()
	for {
		if p.hold != nil {
			<-p.hold
		}
		g, sess, ok := p.q.Pop()
		if !ok {
			return
		}
		ls, err := p.m.assign(g.reqs)
		if err == nil {
			if err = p.m.commitGrant(ls); err != nil {
				ls = nil
			}
		}
		p.q.Finish(sess)
		g.done(ls, err)
	}
}

func (p *placement) close() {
	p.q.Close()
}

// placeLeaseAsync admits one placement request into the fair grant
// queue. done is called exactly once, from a placement worker, with the
// grant or the typed refusal: cl.Busy when the tenant's quota or the
// global shed limit is hit (admission refusal — the request was never
// queued), cl.DeviceNotFound when placement ran but no free device
// matched. weight 0 means 1.
func (m *Manager) placeLeaseAsync(tenant string, weight uint32, reqs []protocol.DeviceRequest, done func(*leaseView, error)) {
	p := m.place
	p.start()
	if p.q.Len() >= p.shed {
		done(nil, cl.Errf(cl.Busy, "devmgr: control plane overloaded (%d grants queued)", p.q.Len()))
		return
	}
	sess := TenantHash(tenant)
	p.q.Open(sess, weight, p.quota)
	cost := 0
	for _, r := range reqs {
		if r.Count > 1 {
			cost += r.Count
		} else {
			cost++
		}
	}
	g := &pendingGrant{tenant: tenant, reqs: reqs, done: done}
	if err := p.q.Push(sess, float64(cost), struct{}{}, g); err != nil {
		if cl.CodeOf(err) == cl.Busy {
			err = cl.Errf(cl.Busy, "devmgr: tenant %q has %d placement requests queued (quota)", tenant, p.quota)
		}
		done(nil, err)
	}
}

// PlaceLease is the synchronous form of placeLeaseAsync: the full
// admission path (quota check, weighted fair queue, placement worker) as
// one call. This is the API in-process embedders drive.
func (m *Manager) PlaceLease(tenant string, weight uint32, reqs []protocol.DeviceRequest) (*leaseView, error) {
	type outcome struct {
		ls  *leaseView
		err error
	}
	ch := make(chan outcome, 1)
	m.placeLeaseAsync(tenant, weight, reqs, func(ls *leaseView, err error) {
		ch <- outcome{ls, err}
	})
	o := <-ch
	return o.ls, o.err
}

// assign matches the requests against the free set and creates a lease.
// Each pick is an O(log n) probe of the free-device index: least-loaded
// server, lexicographic address tie-break, smallest unit ID.
func (m *Manager) assign(reqs []protocol.DeviceRequest) (*leaseView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var chosen []*managedDevice
	fail := func(req protocol.DeviceRequest) (*leaseView, error) {
		// Roll back tentative picks so a partially satisfiable request
		// leaks nothing.
		for _, d := range chosen {
			d.leased = ""
			m.idx.release(d)
			m.freeCount++
		}
		return nil, cl.Errf(cl.DeviceNotFound,
			"no free device matches request (type %s, count %d)", req.Type, req.Count)
	}
	for _, req := range reqs {
		count := req.Count
		if count <= 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			pick := m.idx.pick(req)
			if pick == nil {
				return fail(req)
			}
			// Tentatively lease so the next pick of this request sees the
			// load; the placeholder is replaced by the real auth ID below.
			pick.leased = "!pending"
			m.idx.lease(pick)
			m.freeCount--
			chosen = append(chosen, pick)
		}
	}
	authID, err := newAuthID()
	if err != nil {
		for _, d := range chosen {
			d.leased = ""
			m.idx.release(d)
			m.freeCount++
		}
		return nil, err
	}
	ls := &lease{authID: authID, devices: chosen, servers: map[string]bool{}}
	for _, d := range chosen {
		d.leased = authID
		ls.servers[d.server] = true
	}
	m.leases[authID] = ls
	return &leaseView{authID: authID, devices: chosen, servers: ls.servers}, nil
}

// Assign is the direct, queue-bypassing placement entry point, exported
// for in-process use and tests.
func (m *Manager) Assign(reqs []protocol.DeviceRequest) (*leaseView, error) {
	return m.assign(reqs)
}
