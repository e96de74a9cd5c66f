package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/devmgr"
	"dopencl/internal/kernel"
	"dopencl/internal/protocol"
)

const (
	leaseClients = 2
	// leaseMaxSessions caps one pass: every session opens fresh TCP
	// connections to the manager and a daemon, and loopback ports in
	// TIME_WAIT are a finite resource the benchmark must not exhaust.
	leaseMaxSessions = 12000
)

// leaseRound is how many sessions each client runs per round.
var leaseRound = 32

// leaseWorld is the managed deployment of Fig. 6: a device manager and
// two lease-gated daemons with two GPU-typed devices each.
type leaseWorld struct {
	mgr     *devmgr.Manager
	mgrLn   net.Listener
	mgrAddr string
	c       *cluster
}

func (w *leaseWorld) close() {
	if w == nil {
		return
	}
	if w.c != nil {
		w.c.close()
	}
	if w.mgrLn != nil {
		_ = w.mgrLn.Close()
	}
	if w.mgr != nil {
		w.mgr.Close()
	}
}

func newLeaseWorld(p *pass) (*leaseWorld, error) {
	w := &leaseWorld{mgr: devmgr.New()}
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	w.mgrLn, w.mgrAddr = ln, ln.Addr().String()
	go func() { _ = w.mgr.Serve(ln) }() // returns when close() closes the listener
	if w.c, err = startCluster(clusterSpec{daemons: 2, devsPerDaemon: 2, devType: cl.DeviceTypeGPU, managed: true, w: p.w}); err != nil {
		w.close()
		return nil, err
	}
	for _, n := range w.c.nodes {
		conn, err := net.Dial("tcp", w.mgrAddr)
		if err != nil {
			w.close()
			return nil, err
		}
		if err := n.d.AttachManager(conn, n.addr); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// leaseState is what a lease set-up builds: the managed deployment and
// one client platform per load-generating goroutine.
type leaseState struct {
	w     *leaseWorld
	plats [leaseClients]*client.Platform
}

func (st *leaseState) close() { st.w.close() }

// leaseSplit is the per-phase timing of one session.
type leaseSplit struct {
	total, request, connect, build, run, release samples
}

// leaseSession runs one acquire→result→release cycle and reports whether
// it completed with the right output. input is the job's seed-derived
// payload.
func leaseSession(p *pass, plat *client.Platform, sc *scope, mgrAddr, tenant string, input []byte, sp *leaseSplit) (done bool) {
	defer sc.begin("lease.session")()
	mark := time.Now()
	lap := func(s *samples) {
		now := time.Now()
		s.add(now.Sub(mark))
		mark = now
	}
	start := mark
	ok := func(err error, what string) bool {
		if err != nil {
			p.op(false, "lease session: %s: %v", what, err)
		}
		return err == nil
	}

	endSpan := sc.call("client.RequestFromManager")
	lease, err := plat.RequestFromManager(client.ManagerConfig{
		Manager:  mgrAddr,
		Tenant:   tenant,
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	endSpan()
	if !ok(err, "RequestFromManager") {
		return false
	}
	lap(&sp.request)
	released := false
	defer func() {
		if !released {
			_ = lease.Release() // error path: the failure is already counted
		}
	}()

	devs, err := plat.Devices(cl.DeviceTypeGPU)
	if !ok(err, "Devices") {
		return false
	}
	ctx, err := tracePlatform(plat, sc, "client").CreateContext(devs[:1])
	if !ok(err, "CreateContext") {
		return false
	}
	q, err := ctx.CreateQueue(devs[0])
	if !ok(err, "CreateQueue") {
		return false
	}
	lap(&sp.connect)

	prog, err := ctx.CreateProgramWithSource(axpbSource)
	if !ok(err, "CreateProgramWithSource") {
		return false
	}
	if !ok(prog.Build(nil, ""), "Build") {
		return false
	}
	k, err := prog.CreateKernel("axpb")
	if !ok(err, "CreateKernel") {
		return false
	}
	lap(&sp.build)

	in, err := ctx.CreateBuffer(cl.MemReadOnly, len(input), nil)
	if !ok(err, "CreateBuffer") {
		return false
	}
	out, err := ctx.CreateBuffer(cl.MemWriteOnly, len(input), nil)
	if !ok(err, "CreateBuffer") {
		return false
	}
	for i, v := range []any{in, out, int32(serveFactor), int32(serveJobInts)} {
		if !ok(k.SetArg(i, v), "SetArg") {
			return false
		}
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, input, nil); !ok(err, "write") {
		return false
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{serveJobInts}, nil, nil); !ok(err, "launch") {
		return false
	}
	got := make([]byte, len(input))
	if _, err := q.EnqueueReadBuffer(out, true, 0, got, nil); !ok(err, "read") {
		return false
	}
	lap(&sp.run)

	if !ok(ctx.Release(), "context release") {
		return false
	}
	released = true
	if !ok(lease.Release(), "lease release") {
		return false
	}
	lap(&sp.release)
	sp.total.add(time.Since(start))
	done = checkOutput(input, got)
	p.op(done, "lease session: output differs from in*f+1")
	return done
}

// runLease: the Fig. 6 path — manager placement, admission and assign
// push, daemon lease gating and session creation, client handshake, and
// a cold kernel compile per session.
func runLease(p *pass) error {
	inputs := [leaseClients][]byte{}
	rng := p.rng()
	for i := range inputs {
		inputs[i] = make([]byte, serveJobBytes)
		for j := 0; j < serveJobInts; j++ {
			binary.LittleEndian.PutUint32(inputs[i][4*j:], uint32(rng.Int31n(1<<20)))
		}
	}
	// Tenant order is seed-chosen: rendezvous routing and fair admission
	// key on the tenant name.
	tenants := [leaseClients]string{}
	for i, j := range rng.Perm(leaseClients) {
		tenants[i] = fmt.Sprintf("tenant-%d", j)
	}

	var warm leaseSplit
	st, err := setUp(p, func() (*leaseState, error) {
		w, err := newLeaseWorld(p)
		if err != nil {
			return nil, err
		}
		st := &leaseState{w: w}
		for i := range st.plats {
			st.plats[i] = client.NewPlatform(client.Options{Dialer: w.c.dialer(), ClientName: tenants[i]})
			// First cold operation: one full session per client.
			if !leaseSession(p, st.plats[i], nil, w.mgrAddr, tenants[i], inputs[i], &warm) {
				st.close()
				return nil, fmt.Errorf("cold session failed: %s", p.firstFail)
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	w, plats := st.w, st.plats

	var splits [leaseClients]leaseSplit
	c0 := kernel.WorkGroupCompiles()
	leaseSession(p, plats[0], nil, w.mgrAddr, tenants[0], inputs[0], &warm)
	compiles := int(kernel.WorkGroupCompiles() - c0)

	// Both clients run leaseRound sessions side by side, then meet: the
	// rounds give the pass a place between sessions to time set-ups.
	var scopes [leaseClients]*scope
	for i := range scopes {
		scopes[i] = p.tr.scope(i + 1)
	}
	p.begin()
	for round := 0; p.more(round, 1) && round*leaseRound*leaseClients < leaseMaxSessions; round++ {
		var wg sync.WaitGroup
		for i := range plats {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for n := 0; n < leaseRound; n++ {
					leaseSession(p, plats[i], scopes[i], w.mgrAddr, tenants[i], inputs[i], &splits[i])
				}
			}(i)
		}
		wg.Wait()
	}

	var all leaseSplit
	for i := range splits {
		all.total = append(all.total, splits[i].total...)
		all.request = append(all.request, splits[i].request...)
		all.connect = append(all.connect, splits[i].connect...)
		all.build = append(all.build, splits[i].build...)
		all.run = append(all.run, splits[i].run...)
		all.release = append(all.release, splits[i].release...)
	}
	p.slot(0, all.total, 1)
	p.r.put("session_ms", median(all.total)*1e3, len(all.total))
	if !p.traced() {
		return nil
	}
	p.wgCompiles += compiles
	p.r.put("lease.request_ms", median(all.request)*1e3, len(all.request))
	p.r.put("lease.connect_ms", median(all.connect)*1e3, len(all.connect))
	p.r.put("lease.build_ms", median(all.build)*1e3, len(all.build))
	p.r.put("lease.run_ms", median(all.run)*1e3, len(all.run))
	p.r.put("lease.release_ms", median(all.release)*1e3, len(all.release))

	// Released leases must leave nothing parked on the daemons. The
	// release is a one-way message, so give it a moment to land.
	retained := 0
	for try := 0; try < 50; try++ {
		retained = 0
		for _, n := range w.c.nodes {
			retained += n.d.RetainedSessions()
		}
		if retained == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.r.put("daemon.sessions_retained", float64(retained), 1)
	return nil
}
