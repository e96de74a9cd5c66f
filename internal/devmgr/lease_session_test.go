package devmgr

import (
	"encoding/binary"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/kernel"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

// wireTap is a client-side connection that reads what the client writes on
// it: gcf frames (channel, length, payload; channel 0 carries messages),
// and of the messages the ones in request class — the ones the client
// then waits for an answer to.
type wireTap struct {
	net.Conn
	held     []byte
	requests *requestLog
}

type requestLog struct {
	mu    sync.Mutex
	dials []string
	types []protocol.MsgType
}

func (l *requestLog) take() (dials []string, types []protocol.MsgType) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dials, types = l.dials, l.types
	l.dials, l.types = nil, nil
	return dials, types
}

func (c *wireTap) Write(b []byte) (int, error) {
	c.held = append(c.held, b...)
	for len(c.held) >= 8 {
		n := int(binary.LittleEndian.Uint32(c.held[4:]))
		if len(c.held) < 8+n {
			break
		}
		if binary.LittleEndian.Uint32(c.held) == 0 {
			if env, err := protocol.ParseEnvelope(c.held[8 : 8+n]); err == nil && env.Class == protocol.ClassRequest {
				c.requests.mu.Lock()
				c.requests.types = append(c.requests.types, env.Type)
				c.requests.mu.Unlock()
			}
		}
		c.held = c.held[8+n:]
	}
	return c.Conn.Write(b)
}

const leaseShapeSource = `kernel void axpb(global const int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}`

// One session of the benchmark's lease workload: lease, context, queue,
// program, build, kernel, two buffers, four bindings, write, launch,
// blocking read, context release, lease release.
func leaseShapedSession(t *testing.T, app *client.Platform, mgrAddr string) {
	t.Helper()
	lease, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  mgrAddr,
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	devs, err := app.Devices(cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := app.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(leaseShapeSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("axpb")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	input := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(input[4*i:], uint32(i))
	}
	in, err := ctx.CreateBuffer(cl.MemReadOnly, len(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(cl.MemWriteOnly, len(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{in, out, int32(3), int32(n)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, input, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(input))
	if _, err := q.EnqueueReadBuffer(out, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v := binary.LittleEndian.Uint32(got[4*i:]); v != uint32(3*i+1) {
			t.Fatalf("out[%d] = %d, want %d", i, v, 3*i+1)
		}
	}
	if err := ctx.Release(); err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
}

// tcpManagedWorld is a manager and one managed single-GPU daemon on
// loopback TCP, and a client dialer that logs what it dials and what the
// client asks.
func tcpManagedWorld(t *testing.T) (m *Manager, mgrAddr string, dial client.Dialer, log *requestLog) {
	t.Helper()
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	m = New()
	t.Cleanup(m.Close)
	ml := listen()
	go func() { _ = m.Serve(ml) }() // returns when the listener closes
	dl := listen()
	d, err := daemon.New(daemon.Config{Name: dl.Addr().String(), Managed: true,
		Platform: native.NewPlatform("native", "test", []device.Config{device.TestGPU("g0")})})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(dl) }()
	conn, err := net.Dial("tcp", ml.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachManager(conn, dl.Addr().String()); err != nil {
		t.Fatal(err)
	}
	log = &requestLog{}
	dial = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		log.mu.Lock()
		log.dials = append(log.dials, addr)
		log.mu.Unlock()
		return &wireTap{Conn: conn, requests: log}, nil
	}
	return m, ml.Addr().String(), dial, log
}

// The mechanism behind the lease workload's gain, with no timing in it: a
// lease session waits for one answer — the grant — and dials nothing. The
// daemon link is the previous lease's, kept, and a one-way Hello binds it
// to the new lease; the manager link is the one the first session dialed,
// and everything else rides the one-way pipeline, the build included.
// (Before the daemon link was kept: two answers, the grant and the Hello,
// and a dial. Before the build was one-way: three. Before object lifecycle
// was pipelined and the manager link kept: nine requests — CreateContext,
// CreateQueue, CreateProgram, two CreateBuffer and ReleaseContext besides —
// and two dials.)
func TestLeaseSessionRoundTrips(t *testing.T) {
	m, mgrAddr, dial, log := tcpManagedWorld(t)
	app := client.NewPlatform(client.Options{Dialer: dial, ClientName: "counter"})
	defer app.Close()
	// The first session dials the manager, asking it for the shard map on
	// the link it keeps, and the daemon.
	leaseShapedSession(t, app, mgrAddr)
	if dials, _ := log.take(); len(dials) != 2 || dials[0] != mgrAddr || dials[1] == mgrAddr {
		t.Fatalf("the first session dialed %v, want the manager once, then the daemon", dials)
	}
	want := []protocol.MsgType{protocol.MsgDMRequestDevices}
	for i := 0; i < 3; i++ {
		waitFor(t, func() bool { return m.FreeDevices() == 1 }, "lease release")
		leaseShapedSession(t, app, mgrAddr)
		dials, asked := log.take()
		if !slices.Equal(asked, want) {
			t.Errorf("session %d asked and waited %d times: %v, want %v", i, len(asked), asked, want)
		}
		if len(dials) != 0 {
			t.Errorf("session %d dialed %v, want nothing", i, dials)
		}
	}
}

// The other half of the mechanism, again with no timing in it: a source text
// is compiled once per process. After one warm session, further sessions —
// each a fresh connection, daemon session, context and program object, on
// the client and on the daemon — find the program compiled both times they
// build it and run no optimization pass (one compile and one pass per
// session on each side before the cache); and two client programs of one
// source are stubs of one compiled program.
func TestProgramCompiledOncePerProcess(t *testing.T) {
	m, mgrAddr, dial, _ := tcpManagedWorld(t)
	app := client.NewPlatform(client.Options{Dialer: dial, ClientName: "builder"})
	defer app.Close()
	leaseShapedSession(t, app, mgrAddr)
	plans := kernel.WorkGroupCompiles()
	hits, misses := kernel.SharedCounts()
	const sessions = 3
	for i := 0; i < sessions; i++ {
		waitFor(t, func() bool { return m.FreeDevices() == 1 }, "lease release")
		leaseShapedSession(t, app, mgrAddr)
	}
	if n := kernel.WorkGroupCompiles() - plans; n != 0 {
		t.Errorf("%d sessions after the first ran %d optimization passes, want 0", sessions, n)
	}
	h, ms := kernel.SharedCounts()
	if h-hits != 2*sessions || ms != misses {
		t.Errorf("%d sessions after the first: %d builds found the program compiled and %d compiled it, want %d (client and daemon, each session) and 0",
			sessions, h-hits, ms-misses, 2*sessions)
	}

	waitFor(t, func() bool { return m.FreeDevices() == 1 }, "lease release")
	lease, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  mgrAddr,
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	devs, err := app.Devices(cl.DeviceTypeGPU)
	if err != nil {
		t.Fatal(err)
	}
	var args [2][]kernel.ArgInfo
	for i := range args {
		ctx, err := app.CreateContext(devs[:1])
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Release()
		prog, err := ctx.CreateProgramWithSource(leaseShapeSource)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(nil, ""); err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("axpb")
		if err != nil {
			t.Fatal(err)
		}
		args[i] = k.(*client.Kernel).ArgInfo()
	}
	if &args[0][0] != &args[1][0] {
		t.Error("two client programs of one source describe their kernels from two compiles")
	}
}

// leaseCycle takes the world's one GPU from "devmgr" and gives it back.
func (w *managedWorld) leaseCycle(t *testing.T, app *client.Platform) {
	t.Helper()
	lease, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Servers) != 1 || !lease.Servers[0].Connected() {
		t.Fatalf("lease servers: %v", lease.Servers)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return w.manager.FreeDevices() == 1 }, "lease release")
}

// The kept manager link is cut between two leases: the next request dials
// again, whether or not the client has noticed the cut yet, and its lease
// works.
func TestKeptManagerLinkCutBetweenLeases(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	var mu sync.Mutex
	var managerLinks []net.Conn
	app := client.NewPlatform(client.Options{ClientName: "cut", Dialer: func(addr string) (net.Conn, error) {
		conn, err := w.nw.Dial(addr)
		if err == nil && addr == "devmgr" {
			mu.Lock()
			managerLinks = append(managerLinks, conn)
			mu.Unlock()
		}
		return conn, err
	}})
	defer app.Close()
	cycle := func() { t.Helper(); w.leaseCycle(t, app) }
	links := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(managerLinks)
	}
	cycle()
	cycle()
	if links() != 1 {
		t.Fatalf("two leases dialed the manager %d times, want 1: the kept link carries the shard map too", links())
	}
	// Cut, and ask at once: the request may find the link still in the map.
	managerLinks[0].Close()
	cycle()
	if links() != 2 {
		t.Fatalf("the lease after the cut dialed the manager %d times in all, want 2", links())
	}
	// Cut, and ask once the manager has seen its side close (the client has
	// been told by then, or is about to be).
	managerLinks[1].Close()
	waitFor(t, func() bool {
		w.manager.clMu.Lock()
		defer w.manager.clMu.Unlock()
		return len(w.manager.clients) == 0
	}, "the manager to drop the cut client link")
	cycle()
	cycle()
	if links() != 3 {
		t.Fatalf("two leases after the second cut dialed the manager %d times in all, want 3", links())
	}
}

// The manager's client links outlive their leases, so an epoch bump reaches
// a client that holds none: the cached shard map follows it.
func TestEpochPushBetweenLeasesUpdatesShardView(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	app := w.client("idle")
	defer app.Close()
	w.leaseCycle(t, app)
	if epoch, _ := app.ShardView(); epoch != 1 {
		t.Fatalf("epoch %d after a lease from an unsharded manager", epoch)
	}
	w.manager.notifyEpoch(protocol.ShardMap{Epoch: 9, Shards: []string{"devmgr", "devmgr-b"}})
	waitFor(t, func() bool {
		epoch, shards := app.ShardView()
		return epoch == 9 && slices.Equal(shards, []string{"devmgr", "devmgr-b"})
	}, "the pushed view to reach a client holding no lease")
}

// Platform.Close ends the kept link: with every lease released, nothing of
// the client is left running on either side.
func TestPlatformCloseLeavesNoGoroutine(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	cycle := func(app *client.Platform) { t.Helper(); w.leaseCycle(t, app) }
	// The manager starts its placement workers at the first request: have
	// another client make it, and keep its link up across the measurement.
	warm := w.client("warm")
	defer warm.Close()
	cycle(warm)
	base := runtime.NumGoroutine()
	app := w.client("closer")
	cycle(app)
	cycle(app)
	if runtime.NumGoroutine() <= base {
		t.Fatal("no goroutine serves the kept manager link")
	}
	app.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base }, "the kept link's goroutines to end")
	// A closed platform can be used again: it dials.
	cycle(app)
	app.Close()
}
