package devmgr

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// wire is a hand-framed connection to a manager: what a daemon or client
// puts on the wire and what comes back, frame by frame, with none of the
// code under test on this side of it.
type wire struct {
	ep   *gcf.Endpoint
	resp chan protocol.Envelope // responses
	rest chan protocol.Envelope // everything else, in arrival order
}

func dialWire(t *testing.T, m *Manager) *wire {
	t.Helper()
	a, b := simnet.Pipe(simnet.Unlimited())
	m.ServeConn(b)
	w := &wire{ep: gcf.NewEndpoint(a, true), resp: make(chan protocol.Envelope, 16), rest: make(chan protocol.Envelope, 16)}
	w.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			t.Errorf("manager sent a malformed frame: %v", err)
		} else if env.Class == protocol.ClassResponse {
			w.resp <- env
		} else {
			w.rest <- env
		}
	}, nil)
	t.Cleanup(func() { w.ep.Close() })
	return w
}

func (w *wire) send(t *testing.T, class uint8, id uint32, typ protocol.MsgType, fill func(*protocol.Writer)) {
	t.Helper()
	body := protocol.NewWriter()
	if fill != nil {
		fill(body)
	}
	if err := w.ep.Send(protocol.EncodeEnvelope(class, id, typ, body)); err != nil {
		t.Fatal(err)
	}
}

func (w *wire) next(t *testing.T, ch chan protocol.Envelope, what string) protocol.Envelope {
	t.Helper()
	select {
	case env := <-ch:
		return env
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s from the manager", what)
		return protocol.Envelope{}
	}
}

// registerLeased registers a one-GPU server whose device is held by the
// given lease ID — the re-homing form of a registration.
func (w *wire) registerLeased(t *testing.T, addr, leasedBy string) {
	t.Helper()
	w.send(t, protocol.ClassRequest, 1, protocol.MsgDMRegisterServer, func(b *protocol.Writer) {
		b.String(addr)
		b.String("")
		protocol.PutDeviceRecords(b, []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
		b.Strings([]string{leasedBy})
	})
	if st := cl.ErrorCode(w.next(t, w.resp, "registration response").Body.I32()); st != cl.Success {
		t.Fatalf("registration refused: %v", st)
	}
}

// A lease ID adopted from a daemon's registration is whatever string the
// daemon sent. Releasing a 3-byte one used to slice it [:8] for a log
// line and panic the manager's dispatch goroutine.
func TestReleaseOfShortAdoptedLeaseID(t *testing.T) {
	m := New()
	defer m.Close()
	w := dialWire(t, m)
	w.registerLeased(t, "node", "abc")
	if m.ActiveLeases() != 1 || m.FreeDevices() != 0 {
		t.Fatalf("adopted lease not accounted: leases=%d free=%d", m.ActiveLeases(), m.FreeDevices())
	}
	w.send(t, protocol.ClassOneWay, 0, protocol.MsgDMReleaseLease, func(b *protocol.Writer) { b.String("abc") })
	w.send(t, protocol.ClassRequest, 2, protocol.MsgDMShardMap, nil)
	env := w.next(t, w.resp, "shard map after the release")
	if st := cl.ErrorCode(env.Body.I32()); env.ID != 2 || st != cl.Success {
		t.Fatalf("shard map response: id=%d status=%v", env.ID, st)
	}
	if m.ActiveLeases() != 0 || m.FreeDevices() != 1 {
		t.Fatalf("lease not released: leases=%d free=%d", m.ActiveLeases(), m.FreeDevices())
	}
}

// The manager revokes a lease one-way: nobody waits for the daemon to
// answer, so the frame must not ask it to.
func TestRevokeTravelsOneWay(t *testing.T) {
	m := New()
	defer m.Close()
	w := dialWire(t, m)
	w.registerLeased(t, "node", "lease-0123456789")
	m.ReleaseLease("lease-0123456789")
	env := w.next(t, w.rest, "revoke")
	if env.Type != protocol.MsgDMRevoke || env.Class != protocol.ClassOneWay || env.ID != 0 {
		t.Fatalf("revoke frame: type=%s class=%d id=%d, want a one-way DMRevoke", env.Type, env.Class, env.ID)
	}
	if got := env.Body.String(); got != "lease-0123456789" {
		t.Fatalf("revoke names lease %q", got)
	}
}

// Against an unsharded manager — whose view lists no shards — the client
// must still remember that it asked: one dial, for the link that carries
// the map request and then every placement and release — not a map fetch,
// or a dial, per placement.
func TestUnshardedManagerIsAskedForItsMapOnce(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	var managerDials atomic.Int32
	app := client.NewPlatform(client.Options{ClientName: "looper", Dialer: func(addr string) (net.Conn, error) {
		if addr == "devmgr" {
			managerDials.Add(1)
		}
		return w.nw.Dial(addr)
	}})
	const cycles = 5
	for i := 0; i < cycles; i++ {
		lease, err := app.RequestFromManager(client.ManagerConfig{
			Manager:  "devmgr",
			Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := lease.Release(); err != nil {
			t.Fatalf("cycle %d release: %v", i, err)
		}
		waitFor(t, func() bool { return w.manager.FreeDevices() == 1 }, "lease release")
	}
	if got := managerDials.Load(); got != 1 {
		t.Fatalf("%d acquire/release cycles dialed the manager %d times, want 1: the kept link, which the map request rides too", cycles, got)
	}
	app.Close()
}

// registerFree registers a server with one free GPU.
func (w *wire) registerFree(t *testing.T, addr string) {
	t.Helper()
	w.registerLeased(t, addr, "")
}

// A placement request that arrives one-way has nobody to hand the lease
// to: it places nothing. (The manager used to place it and answer ID 0.)
func TestOneWayPlaceRequestPlacesNothing(t *testing.T) {
	m := New()
	defer m.Close()
	w := dialWire(t, m)
	w.registerFree(t, "node")
	w.send(t, protocol.ClassOneWay, 0, protocol.MsgDMRequestDevices, func(b *protocol.Writer) {
		protocol.PlaceRequest{Tenant: "t", Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}}.Put(b)
	})
	// Frames are handled in order, and placement is quick: by the time this
	// is answered a lease would have been placed.
	w.send(t, protocol.ClassRequest, 2, protocol.MsgDMShardMap, nil)
	w.next(t, w.resp, "shard map after the one-way request")
	time.Sleep(50 * time.Millisecond)
	if m.ActiveLeases() != 0 || m.FreeDevices() != 1 {
		t.Fatalf("one-way request placed a lease: leases=%d free=%d", m.ActiveLeases(), m.FreeDevices())
	}
	select {
	case env := <-w.resp:
		t.Fatalf("one-way request was answered (id %d, type %s)", env.ID, env.Type)
	default:
	}
}

// Pointing a client's server list at the manager's address is a one-line
// mistake in dcl.nodes. The Hello it sends is a request the manager does
// not serve: it must be refused, where it used to be dropped and
// ConnectServer never returned.
func TestConnectServerOnManagerAddressFails(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	app := client.NewPlatform(client.Options{ClientName: "lost", Dialer: w.nw.Dial})
	done := make(chan error, 1)
	go func() {
		_, err := app.ConnectServer("devmgr")
		done <- err
	}()
	select {
	case err := <-done:
		if cl.CodeOf(err) != cl.InvalidOperation {
			t.Fatalf("ConnectServer on the manager's address: %v, want CL_INVALID_OPERATION", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ConnectServer on the manager's address never returned")
	}
}

// A daemon whose partition changed closes its link and registers again
// over a new one, and the new registration may reach the manager before
// the old link's close notice has run. The notice removes what was
// registered over its own link and nothing else: it used to drop the
// server by address — the new registration, devices and connection — and
// leave a daemon that believed itself registered with a shard that held
// nothing of it (chaos.TestShardKillRehomesDevicesExactly, stuck for its
// whole timeout about one isolated package run in fifteen). Nothing orders
// the notice against the registration, so this takes many rounds to meet
// the interleaving; a round that does not meet it proves nothing and costs
// a few microseconds.
func TestStaleLinkCloseKeepsNewRegistration(t *testing.T) {
	m := New()
	defer m.Close()
	link := dialWire(t, m)
	link.registerFree(t, "node")
	for round := 0; round < 2000; round++ {
		link.ep.Close()
		link = dialWire(t, m)
		link.registerFree(t, "node")
		// Whatever the previous round's notice did to this registration it
		// has done by the time the manager has served one more request.
		link.send(t, protocol.ClassRequest, 2, protocol.MsgDMShardMap, nil)
		select {
		case <-link.resp:
		case <-link.ep.Done():
		}
		if m.FreeDevices() != 1 || link.ep.Closed() {
			t.Fatalf("round %d: the replaced link's close took the new registration with it: free=%d, new link closed=%v",
				round, m.FreeDevices(), link.ep.Closed())
		}
	}
}

// A daemon that registers and vanishes at once is dropped with its
// devices: the close notice runs after the registration's handler, so it
// finds the link that handler recorded. A notice run beside the
// dispatcher could look before the handler had recorded it, and the dead
// daemon's devices would stay registered.
func TestRegisterThenCloseDropsTheDaemon(t *testing.T) {
	dropped := make(chan struct{}, 1)
	m := New(WithLogf(func(format string, args ...any) {
		if format == "devmgr: server %s dropped" {
			select {
			case dropped <- struct{}{}:
			default:
			}
		}
	}))
	defer m.Close()
	w := dialWire(t, m)
	w.send(t, protocol.ClassRequest, 1, protocol.MsgDMRegisterServer, func(b *protocol.Writer) {
		b.String("node")
		b.String("")
		protocol.PutDeviceRecords(b, []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
		b.Strings([]string{""})
	})
	w.ep.Close()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatalf("the closed daemon was never dropped: devices %v", m.DeviceIDs())
	}
	if ids := m.DeviceIDs(); len(ids) != 0 {
		t.Fatalf("devices of the closed daemon still registered: %v", ids)
	}
}
