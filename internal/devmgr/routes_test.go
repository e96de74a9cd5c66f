package devmgr

import (
	"fmt"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/rpc/rpctest"
)

func managerSamples() []rpctest.Sample {
	req := protocol.ClassRequest
	return []rpctest.Sample{
		// No lease-holder list: with one, the body cut just before it would
		// be a well-formed registration of its own.
		{Type: protocol.MsgDMRegisterServer, Class: req, Setup: true, Fill: func(w *protocol.Writer) {
			w.String("node")
			w.String("node/peer")
			protocol.PutDeviceRecords(w, []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
		}},
		{Type: protocol.MsgDMRequestDevices, Class: req, Fill: protocol.PlaceRequest{Tenant: "t", Weight: 1,
			Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}}.Put},
		{Type: protocol.MsgDMReleaseLease, Class: protocol.ClassOneWay, Fill: func(w *protocol.Writer) { w.String("lease-a") }},
		{Type: protocol.MsgDMShardMap, Class: req},
		{Type: protocol.MsgDMGossip, Class: req, Fill: protocol.Gossip{From: "b", View: protocol.ShardMap{Epoch: 2, Shards: []string{"a", "b"}}}.Put},
	}
}

func TestManagerRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, New().routes(nil, new(*daemonLink)), managerSamples())
}

// The manager with one free GPU registered over the link under test: no
// refused frame places, releases or registers anything, a request of a
// type the manager does not serve (a client's Hello) is answered, and the
// shard map is still served afterwards.
func TestManagerRefusesWhatItDoesNotServe(t *testing.T) {
	m := New(WithShard("a", []string{"a", "b"}, nil))
	defer m.Close()
	near, far := gcf.NewLocalPair()
	l := rpctest.StartLink(near)
	defer l.EP.Close()
	l.Conn = rpc.New(far)
	rt := m.routes(l.Conn, new(*daemonLink))
	l.Conn.Start(rt, nil)
	samples := managerSamples()
	for i, sm := range samples {
		if sm.Setup {
			if st := l.Ask(t, uint32(i+1), sm.Type, sm.Body()); st != cl.Success {
				t.Fatalf("set-up %s: %v", sm.Type, st)
			}
		}
	}
	l.State = func() string {
		return fmt.Sprintf("leases=%d free=%d devices=%v map=%v", m.ActiveLeases(), m.FreeDevices(), m.DeviceIDs(), m.ShardMap())
	}
	l.Alive = func(t *testing.T) {
		t.Helper()
		if st := l.Ask(t, 1, protocol.MsgDMShardMap, nil); st != cl.Success {
			t.Fatalf("shard map after the sweep: %v", st)
		}
	}
	rpctest.Sweep(t, l, rt, samples)
}
