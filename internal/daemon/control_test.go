package daemon

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/devmgr"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// serveManager runs an unsharded device manager at "mgr" on nw, with
// health checks that evict a daemon after two missed probes.
func serveManager(t *testing.T, nw *simnet.Network) (m *devmgr.Manager, stop func()) {
	t.Helper()
	m = devmgr.New()
	lis, err := nw.Listen("mgr")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = m.Serve(lis) }()
	stopHealth := m.StartHealthChecks(20*time.Millisecond, 60*time.Millisecond)
	stop = sync.OnceFunc(func() {
		stopHealth()
		lis.Close()
		m.Close()
	})
	t.Cleanup(stop)
	return m, stop
}

// joinOneSeed starts a managed two-GPU daemon "node1" and joins it to the
// control plane whose only seed is "mgr".
func joinOneSeed(t *testing.T, nw *simnet.Network) *Daemon {
	t.Helper()
	plat := native.NewPlatform("p", "v", []device.Config{
		device.TestGPU("g0"), device.TestGPU("g1"),
	})
	d, err := New(Config{Name: "node1", Platform: plat, Managed: true})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := d.JoinControlPlane(ControlPlaneConfig{
		Dial:     func(addr string) (net.Conn, error) { return nw.DialFrom("node1", addr) },
		Seeds:    []string{"mgr"},
		SelfAddr: "node1",
		RetryMin: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return d
}

func waitManager(t *testing.T, m *devmgr.Manager, what string, free, leases int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.FreeDevices() == free && m.ActiveLeases() == leases {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s: free=%d leases=%d, want %d and %d", what, m.FreeDevices(), m.ActiveLeases(), free, leases)
}

// A single unsharded manager is a control plane of one seed: its view
// lists no shards, so every device registers with the seed. When the
// manager link dies (network severed long enough for the manager's
// health checks to evict the daemon), the daemon re-registers with
// jittered backoff after the link heals and the manager regains the
// devices.
func TestSingleManagerIsOneSeedControlPlane(t *testing.T) {
	nw := simnet.NewNetwork(simnet.Unlimited())
	m, _ := serveManager(t, nw)
	d := joinOneSeed(t, nw)
	waitManager(t, m, "initial registration", 2, 0)
	if ids := m.DeviceIDs(); len(ids) != 2 {
		t.Fatalf("manager holds %v, want both devices of node1", ids)
	}

	// Sever the daemon: probes fail, and after healthMissLimit sweeps the
	// manager drops the server.
	nw.SeverNode("node1")
	waitManager(t, m, "eviction after sever", 0, 0)

	// Heal: the backoff loop re-dials and re-registers without any
	// external nudge.
	nw.HealNode("node1")
	waitManager(t, m, "re-registration after heal", 2, 0)
	if view := d.ControlPlaneView(); !strings.Contains(view, "shards [mgr]") {
		t.Fatalf("daemon's view %q, want the seed as its only shard", view)
	}
}

// A manager restarted on the same address while a lease is held learns
// the lease from the daemon's re-registration: the leased device is not
// free, and the lease is active again.
func TestSingleManagerRestartCarriesLease(t *testing.T) {
	nw := simnet.NewNetwork(simnet.Unlimited())
	m, stop := serveManager(t, nw)
	d := joinOneSeed(t, nw)
	waitManager(t, m, "initial registration", 2, 0)
	lease, err := m.PlaceLease("tenant", 1, []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasLease(lease.AuthID()) {
		t.Fatal("placed lease not assigned on the daemon")
	}

	stop()
	m, _ = serveManager(t, nw)
	waitManager(t, m, "re-registration with the restarted manager", 1, 1)
	if !d.HasLease(lease.AuthID()) {
		t.Fatal("the daemon dropped the lease across the manager restart")
	}
}

// fakeManager is the manager's end of a daemon's management link, framed
// by hand: it acknowledges the registration and hands every other frame
// the daemon sends to the test.
type fakeManager struct {
	ep     *gcf.Endpoint
	frames chan protocol.Envelope
}

func attachFakeManager(t *testing.T, d *Daemon) *fakeManager {
	t.Helper()
	a, b := simnet.Pipe(simnet.Unlimited())
	fm := &fakeManager{ep: gcf.NewEndpoint(b, false), frames: make(chan protocol.Envelope, 16)}
	fm.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			t.Errorf("daemon sent a malformed frame: %v", err)
			return
		}
		if env.Type == protocol.MsgDMRegisterServer {
			fm.send(t, protocol.ClassResponse, env.ID, env.Type, func(w *protocol.Writer) { w.I32(int32(cl.Success)) })
			return
		}
		fm.frames <- env
	}, nil)
	t.Cleanup(func() { fm.ep.Close() })
	if err := d.AttachManager(a, "node"); err != nil {
		t.Fatal(err)
	}
	return fm
}

func (fm *fakeManager) send(t *testing.T, class uint8, id uint32, typ protocol.MsgType, fill func(*protocol.Writer)) {
	t.Helper()
	w := protocol.NewWriter()
	if fill != nil {
		fill(w)
	}
	if err := fm.ep.Send(protocol.EncodeEnvelope(class, id, typ, w)); err != nil {
		t.Error(err)
	}
}

func (fm *fakeManager) next(t *testing.T) protocol.Envelope {
	t.Helper()
	select {
	case env := <-fm.frames:
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("no frame from the daemon")
		return protocol.Envelope{}
	}
}

// Which class each management message travels in, pinned at frame level:
// the daemon acts on an assignment, a revoke or a ping in either class
// but answers only a request (a one-way revoke or epoch push has nobody
// waiting), and reports an invalidated lease one-way.
func TestManagerLinkAnswersOnlyRequests(t *testing.T) {
	d := testDaemon(t, true)
	fm := attachFakeManager(t, d)
	lease := func(w *protocol.Writer) { w.String("lease-a") }
	assign := func(w *protocol.Writer) { w.String("lease-a"); w.U64s([]uint64{1}) }

	fm.send(t, protocol.ClassOneWay, 0, protocol.MsgDMAssign, assign)
	fm.send(t, protocol.ClassOneWay, 0, protocol.MsgDMPing, nil)
	fm.send(t, protocol.ClassOneWay, 0, protocol.MsgDMRevoke, lease)
	fm.send(t, protocol.ClassRequest, 7, protocol.MsgDMPing, nil)
	// Frames are handled in order, so an answer to any of the one-ways
	// would arrive ahead of this one.
	if env := fm.next(t); env.Class != protocol.ClassResponse || env.ID != 7 || env.Type != protocol.MsgDMPing {
		t.Fatalf("first frame back: class=%d id=%d type=%s, want the response to ping 7", env.Class, env.ID, env.Type)
	}
	if d.HasLease("lease-a") {
		t.Fatal("one-way assign + revoke left the lease in place")
	}

	fm.send(t, protocol.ClassRequest, 8, protocol.MsgDMAssign, assign)
	if env := fm.next(t); env.Class != protocol.ClassResponse || env.ID != 8 || cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatalf("assign request not acknowledged: class=%d id=%d", env.Class, env.ID)
	}
	if !d.HasLease("lease-a") {
		t.Fatal("assign request not applied")
	}

	d.reportInvalidatedLease("lease-a", nil)
	env := fm.next(t)
	if env.Type != protocol.MsgDMReleaseLease || env.Class != protocol.ClassOneWay || env.Body.String() != "lease-a" {
		t.Fatalf("lease report: type=%s class=%d, want a one-way DMReleaseLease for lease-a", env.Type, env.Class)
	}
}

// A seed that accepts the connection and then dies must cost the
// shard-map refresh nothing: the close notice fails the request and the
// next seed is asked. The daemon's copy of the fetch used to have no
// close notice and sat out RetryMax (an hour here) per dead seed.
func TestRefreshViewSkipsSeedThatDiesMidRequest(t *testing.T) {
	live := devmgr.New(devmgr.WithShard("live", nil, nil))
	defer live.Close()
	cp := &controlPlane{
		d: testDaemon(t, true),
		cfg: ControlPlaneConfig{
			Dial: func(addr string) (net.Conn, error) {
				a, b := simnet.Pipe(simnet.Unlimited())
				if addr == "dead" {
					b.Close()
				} else {
					live.ServeConn(b)
				}
				return a, nil
			},
			Seeds: []string{"dead", "live"}, SelfAddr: "node",
			RetryMin: time.Millisecond, RetryMax: time.Hour,
		},
		shards: []string{"dead", "live"},
		links:  map[string]*shardLink{},
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	done := make(chan struct{})
	go func() { cp.refreshView(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("refreshView is still waiting on the dead seed")
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.epoch != 1 || len(cp.shards) != 1 || cp.shards[0] != "live" {
		t.Fatalf("view after refresh: epoch %d shards %v, want the live seed's", cp.epoch, cp.shards)
	}
}

// A request the manager link does not serve is answered, not dropped: the
// manager's call would otherwise wait out its timeout, or for ever.
func TestManagerLinkAnswersUnservedRequest(t *testing.T) {
	fm := attachFakeManager(t, testDaemon(t, true))
	fm.send(t, protocol.ClassRequest, 5, protocol.MsgDMShardMap, nil)
	env := fm.next(t)
	if st := cl.ErrorCode(env.Body.I32()); env.Class != protocol.ClassResponse || env.ID != 5 || st != cl.InvalidOperation {
		t.Fatalf("answer to an unserved request: class=%d id=%d status=%v, want InvalidOperation", env.Class, env.ID, st)
	}
}

// A DMAssign cut short grants nothing (it used to admit the
// authentication ID "" to an empty lease) and its sender is told so.
func TestTruncatedAssignGrantsNothing(t *testing.T) {
	d := testDaemon(t, true)
	fm := attachFakeManager(t, d)
	fm.send(t, protocol.ClassRequest, 6, protocol.MsgDMAssign, func(w *protocol.Writer) { w.U16(0xffff) })
	if st := cl.ErrorCode(fm.next(t).Body.I32()); st != cl.InvalidValue {
		t.Fatalf("truncated assign answered %v, want InvalidValue", st)
	}
	if d.HasLease("") {
		t.Fatal("truncated assign granted a lease to the empty authentication ID")
	}
}

// A lease ends on a daemon as a whole, on the word of one shard; units of
// it may have re-homed to another shard since, which holds the record for
// them and hears of the end from nobody else. The daemon passes the word
// on to its other manager links — and not back to the shard it came from.
// (Without this a lease released after a shard restart stayed booked on
// the shard its units had moved to: the "all leases released" timeout of
// TestShardKillRehomesDevicesExactly, 1 run in 40.)
func TestRevokeIsPassedOnToOtherShards(t *testing.T) {
	d := testDaemon(t, true)
	granting, adopting := attachFakeManager(t, d), attachFakeManager(t, d)
	granting.send(t, protocol.ClassRequest, 5, protocol.MsgDMAssign, func(w *protocol.Writer) { w.String("lease-a"); w.U64s([]uint64{0, 1}) })
	granting.next(t) // the acknowledgement
	granting.send(t, protocol.ClassOneWay, 0, protocol.MsgDMRevoke, func(w *protocol.Writer) { w.String("lease-a") })
	env := adopting.next(t)
	if env.Type != protocol.MsgDMReleaseLease || env.Class != protocol.ClassOneWay || env.Body.String() != "lease-a" {
		t.Fatalf("the other shard got type=%s class=%d, want a one-way DMReleaseLease for lease-a", env.Type, env.Class)
	}
	// The revoking shard hears nothing back; neither does anyone when the
	// lease named is not held here (that is what ends the echo between two
	// shards that both hold a record).
	adopting.send(t, protocol.ClassOneWay, 0, protocol.MsgDMRevoke, func(w *protocol.Writer) { w.String("lease-a") })
	granting.send(t, protocol.ClassRequest, 6, protocol.MsgDMPing, nil)
	if env := granting.next(t); env.Class != protocol.ClassResponse || env.ID != 6 {
		t.Fatalf("the revoking shard was sent type=%s class=%d", env.Type, env.Class)
	}
}

// A shard that drops a registration the moment it has answered it (its
// own close notice for the daemon's previous link took the new one too,
// say, or it died): whichever comes first on the daemon — the registration
// returning or the link's close notice — the daemon knows the link is gone
// and registers again. The notice used to find no link to forget when it
// came first, and the dead link was then recorded as a registration, for
// good.
func TestLinkLostRightAfterRegistrationIsNoticed(t *testing.T) {
	d := testDaemon(t, true)
	registered := make(chan struct{}, 1)
	dial := func(string) (net.Conn, error) {
		a, b := simnet.Pipe(simnet.Unlimited())
		ep := gcf.NewEndpoint(b, false)
		ep.Start(func(msg []byte) {
			env, err := protocol.ParseEnvelope(msg)
			if err != nil {
				t.Errorf("daemon sent a malformed frame: %v", err)
				return
			}
			w := protocol.NewWriter()
			w.I32(int32(cl.Success))
			switch env.Type {
			case protocol.MsgDMShardMap: // asked after a registration that failed
				protocol.ShardMap{Epoch: 1, Shards: []string{"shard"}}.Put(w)
				_ = ep.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w))
			case protocol.MsgDMRegisterServer:
				_ = ep.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w))
				go ep.Close()
				registered <- struct{}{}
			}
		}, nil)
		return a, nil
	}
	stop, err := d.JoinControlPlane(ControlPlaneConfig{Dial: dial, Seeds: []string{"shard"}, SelfAddr: "node",
		RetryMin: time.Millisecond, RetryMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for i := 0; i < 500; i++ {
		select {
		case <-registered:
		case <-time.After(5 * time.Second):
			t.Fatalf("after %d registrations, each dropped at once, the daemon stopped registering: %s", i, d.ControlPlaneView())
		}
	}
}
