package daemon

import (
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

func testDaemon(t *testing.T, managed bool) *Daemon {
	t.Helper()
	plat := native.NewPlatform("p", "v", []device.Config{
		device.TestCPU("cpu0"), device.TestGPU("gpu0"),
	})
	d, err := New(Config{Name: "srv", Platform: plat, Managed: managed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("daemon without platform accepted")
	}
	d := testDaemon(t, false)
	if d.Name() != "srv" || len(d.Devices()) != 2 {
		t.Fatalf("daemon = %q with %d devices", d.Name(), len(d.Devices()))
	}
	recs := d.Records()
	if len(recs) != 2 || recs[0].UnitID != 0 || recs[1].UnitID != 1 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestLeaseFiltering(t *testing.T) {
	d := testDaemon(t, true)
	// Unknown auth ID is rejected outright.
	if _, err := d.visibleRecords("bogus"); cl.CodeOf(err) != cl.InvalidServer {
		t.Fatalf("unknown auth: %v", err)
	}
	// Lease on unit 1 exposes only that device.
	d.Allow("lease-a", []uint32{1})
	recs, err := d.visibleRecords("lease-a")
	if err != nil || len(recs) != 1 || recs[0].UnitID != 1 {
		t.Fatalf("filtered records = %+v, %v", recs, err)
	}
	if !d.HasLease("lease-a") {
		t.Fatal("lease not tracked")
	}
	d.Revoke("lease-a")
	if d.HasLease("lease-a") {
		t.Fatal("revoked lease still tracked")
	}
	if _, err := d.visibleRecords("lease-a"); err == nil {
		t.Fatal("revoked auth still accepted")
	}
}

func TestUnmanagedExposesEverything(t *testing.T) {
	d := testDaemon(t, false)
	recs, err := d.visibleRecords("anything")
	if err != nil || len(recs) != 2 {
		t.Fatalf("unmanaged visibility: %+v, %v", recs, err)
	}
}

func TestProtocolObjectErrors(t *testing.T) {
	d := testDaemon(t, false)
	rs := newGraphSession(t, d)
	defer rs.ep.Close()

	// Operations against unknown object IDs return the right codes.
	if rs.tell(t, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(100) // queue ID
		w.U64(999) // unknown context
		w.U64(0)
	}) != cl.InvalidContext {
		t.Fatal("unknown context not rejected")
	}
	if rs.tell(t, protocol.MsgBuildProgram, func(w *protocol.Writer) {
		w.U64(999)
		w.String("")
	}) != cl.InvalidProgram {
		t.Fatal("unknown program not rejected")
	}
	env := rs.call(t, 3, protocol.MsgFinish, func(w *protocol.Writer) {
		w.U64(999)
	})
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidCommandQueue {
		t.Fatal("unknown queue not rejected")
	}
	// Unknown message types answer InvalidOperation rather than hanging.
	env = rs.call(t, 4, protocol.MsgType(999), nil)
	if cl.ErrorCode(env.Body.I32()) != cl.InvalidOperation {
		t.Fatal("unknown message type not rejected")
	}
	// A context created on a bad device unit fails cleanly.
	if rs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(50)
		w.U64s([]uint64{7})
	}) != cl.InvalidDevice {
		t.Fatal("bad device unit not rejected")
	}
}

func TestProtocolHappyPath(t *testing.T) {
	d := testDaemon(t, false)
	rs := newGraphSession(t, d)
	defer rs.ep.Close()

	env := rs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		w.String("raw-client")
		w.String("")
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("hello failed")
	}
	if name := env.Body.String(); name != "srv" {
		t.Fatalf("server name = %q", name)
	}
	if recs := protocol.GetDeviceRecords(env.Body); len(recs) != 2 {
		t.Fatalf("hello records = %+v", recs)
	}

	if rs.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(10)
		w.U64s([]uint64{0})
	}) != cl.Success {
		t.Fatal("create context failed")
	}
	env = rs.call(t, 3, protocol.MsgGetServerInfo, nil)
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("server info failed")
	}
	if env.Body.String() != "srv" || env.Body.Bool() || env.Body.U32() != 2 {
		t.Fatal("server info content wrong")
	}
	// Releases are idempotent even for unknown IDs.
	for _, id := range []uint64{10, 10} {
		if rs.tell(t, protocol.MsgReleaseContext, func(w *protocol.Writer) { w.U64(id) }) != cl.Success {
			t.Fatal("release failed")
		}
	}
}
