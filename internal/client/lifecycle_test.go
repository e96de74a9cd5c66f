package client

import (
	"net"
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// Object lifecycle is pipelined: creates and releases are one-way sends, so
// what a daemon refuses comes back later. These tests pin the two halves of
// that contract — what the client can check it still reports from the
// create call itself, and a daemon's refusal is reported once, with its own
// code and text, by the next call that waits on that server.

// stingySize is the one allocation the stingy platform refuses.
const stingySize = 4096 + 8

// stingyPlatform is a native platform whose contexts are out of memory for
// exactly one buffer size: a refusal only the daemon can make.
type stingyPlatform struct{ cl.Platform }

func (p stingyPlatform) CreateContext(devs []cl.Device) (cl.Context, error) {
	ctx, err := p.Platform.CreateContext(devs)
	if err != nil {
		return nil, err
	}
	return stingyContext{ctx}, nil
}

type stingyContext struct{ cl.Context }

func (c stingyContext) CreateBuffer(flags cl.MemFlags, size int, host []byte) (cl.Buffer, error) {
	if size == stingySize {
		return nil, cl.Errf(cl.OutOfResources, "device memory exhausted allocating %d bytes", size)
	}
	return c.Context.CreateBuffer(flags, size, host)
}

// lifecycleWorld is one stingy daemon with one device, connected.
func lifecycleWorld(t *testing.T) (*Platform, *Server, cl.Device) {
	t.Helper()
	nw := simnet.NewNetwork(simnet.Unlimited())
	np := stingyPlatform{native.NewPlatform("native-node0", "test vendor", []device.Config{device.TestCPU("cpu0")})}
	d, err := daemon.New(daemon.Config{Name: "node0", Platform: np})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("node0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = d.Serve(l) }() // returns when the listener closes
	plat := NewPlatform(Options{Dialer: func(addr string) (net.Conn, error) { return nw.DialFrom(testClientID, addr) }})
	srv, err := plat.ConnectServer("node0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plat.DisconnectServer(srv) })
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	return plat, srv, devs[0]
}

const incSource = `kernel void inc(global int* d) { d[get_global_id(0)] = d[get_global_id(0)] + 1; }`

// within fails the test if fn has not returned after five seconds: a
// dependent of a refused create must fail, not hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func wantRefusal(t *testing.T, where string, err error, code cl.ErrorCode, text string) {
	t.Helper()
	if cl.CodeOf(err) != code || err == nil || !strings.Contains(err.Error(), text) {
		t.Fatalf("%s = %v, want the create's own %v mentioning %q", where, err, code, text)
	}
}

// A create the daemon refuses is reported by the next call that waits on
// that server — whichever kind it is — with the create's code and message,
// not the InvalidMemObject or InvalidProgram of the commands that then name
// the missing object; those fail without panic or hang; and the refusal is
// reported once.
func TestDeferredCreateFailureSurfacesAtNextWait(t *testing.T) {
	// An allocation the platform refuses, first waited on by a blocking read
	// (of a buffer that lives on the server: a range valid only in the host
	// cache is read without asking anybody).
	t.Run("allocation refused, blocking read", func(t *testing.T) {
		plat, _, dev := lifecycleWorld(t)
		ctx, err := plat.CreateContext([]cl.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		good, err := ctx.CreateBuffer(cl.MemReadWrite, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ctx.CreateProgramWithSource(incSource)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(nil, ""); err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("inc")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueWriteBuffer(good, false, 0, make([]byte, 4096), nil); err != nil {
			t.Fatal(err)
		}
		bad, err := ctx.CreateBuffer(cl.MemReadWrite, stingySize, nil)
		if err != nil {
			t.Fatalf("a refusal only the daemon can make came back from the create call: %v", err)
		}
		// Dependents of the missing buffer: a binding, a launch, a write.
		if err := k.SetArg(0, bad); err != nil {
			t.Fatal(err)
		}
		launch, err := q.EnqueueNDRangeKernel(k, []int{16}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueWriteBuffer(bad, false, 0, make([]byte, stingySize), nil); err != nil {
			t.Fatal(err)
		}
		// The next wait on the server, whatever it is about.
		within(t, "the blocking read", func() {
			_, err = q.EnqueueReadBuffer(good, true, 0, make([]byte, 4096), nil)
		})
		wantRefusal(t, "blocking read after the refused create", err, cl.OutOfResources, "device memory exhausted")
		if !strings.Contains(err.Error(), "CreateBuffer") {
			t.Fatalf("the error does not name the create: %v", err)
		}
		if st := launch.Status(); st >= 0 {
			within(t, "the dependent launch's event", func() { _ = settle(launch) })
		}
		if st := launch.Status(); st >= 0 {
			t.Fatalf("the launch on the missing buffer has status %v", st)
		}
		// What is left are the dependents' own failures, on the queue: Finish
		// reports those, and never the refusal again.
		within(t, "Finish", func() { err = q.Finish() })
		if err == nil || cl.CodeOf(err) == cl.OutOfResources {
			t.Fatalf("Finish after the refusal was reported = %v, want a dependent command's failure", err)
		}
		// And then the server is clean: every kind of wait.
		if err := q.Finish(); err != nil {
			t.Fatalf("second Finish: %v", err)
		}
		if err := k.SetArg(0, good); err != nil {
			t.Fatal(err)
		}
		ev, err := q.EnqueueNDRangeKernel(k, []int{16}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatalf("event wait on the clean server: %v", err)
		}
		out := make([]byte, 4096)
		if _, err := q.EnqueueReadBuffer(good, true, 0, out, nil); err != nil {
			t.Fatalf("blocking read on the clean server: %v", err)
		}
		if out[0] != 1 || out[60] != 1 || out[64] != 0 {
			t.Fatalf("kernel on the good buffer wrote %v %v %v", out[0], out[60], out[64])
		}
	})

	// refusedBuild runs what an application does around a Build the daemons
	// cannot do — because the program's create was refused, or because they
	// do not know the program: Build itself does not wait and reports only
	// the client's own verdict, the kernel and its launch fail on the daemon
	// without panic or hang, and the first refusal is reported once, under
	// its own code and text, by the blocking read that follows.
	refusedBuild := func(t *testing.T, sabotage func(*Context, *Server) cl.Program, code cl.ErrorCode, op, text string) {
		plat, srv, dev := lifecycleWorld(t)
		cctx, err := plat.CreateContext([]cl.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cctx.(*Context)
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		good, err := ctx.CreateBuffer(cl.MemReadWrite, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueWriteBuffer(good, false, 0, make([]byte, 4096), nil); err != nil {
			t.Fatal(err)
		}
		// What the doomed launch would write: a failed launch leaves no
		// valid copy of it.
		scratch, err := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog := sabotage(ctx, srv)
		within(t, "Build", func() { err = prog.Build(nil, "") })
		if err != nil {
			t.Fatalf("Build = %v: a refusal only the daemon can make came back from a call that does not wait", err)
		}
		k, err := prog.CreateKernel("inc")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArg(0, scratch); err != nil {
			t.Fatal(err)
		}
		launch, err := q.EnqueueNDRangeKernel(k, []int{16}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4096)
		within(t, "the blocking read", func() { _, err = q.EnqueueReadBuffer(good, true, 0, out, nil) })
		wantRefusal(t, "blocking read after the refused build", err, code, text)
		if !strings.Contains(err.Error(), op) {
			t.Fatalf("the error does not name %s: %v", op, err)
		}
		if st := launch.Status(); st >= 0 {
			within(t, "the dependent launch's event", func() { _ = settle(launch) })
		}
		if st := launch.Status(); st >= 0 {
			t.Fatalf("the launch of a kernel the daemon never made has status %v", st)
		}
		// What is left is the launch's own failure, on the queue; then the
		// server is clean.
		within(t, "Finish", func() { err = q.Finish() })
		if err == nil || cl.CodeOf(err) == code && strings.Contains(err.Error(), text) {
			t.Fatalf("Finish after the refusal was reported = %v, want the launch's failure", err)
		}
		if err := q.Finish(); err != nil {
			t.Fatalf("second Finish: %v", err)
		}
		prog2, err := ctx.CreateProgramWithSource(incSource)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog2.Build(nil, ""); err != nil {
			t.Fatalf("Build on the clean server: %v", err)
		}
		k2, err := prog2.CreateKernel("inc")
		if err != nil {
			t.Fatal(err)
		}
		if err := k2.SetArg(0, good); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRangeKernel(k2, []int{16}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueReadBuffer(good, true, 0, out, nil); err != nil {
			t.Fatalf("blocking read on the clean server: %v", err)
		}
		if out[0] != 1 || out[60] != 1 || out[64] != 0 {
			t.Fatalf("kernel on the clean server wrote %v %v %v", out[0], out[60], out[64])
		}
	}

	// A context ID the daemon does not know, under a program that is then
	// built: the create's refusal is the one reported, not the InvalidProgram
	// of the build that follows from it.
	t.Run("unknown context, Build", func(t *testing.T) {
		refusedBuild(t, func(ctx *Context, srv *Server) cl.Program {
			rid := ctx.remoteIDs[srv]
			ctx.remoteIDs[srv] = 0xdead
			prog, err := ctx.CreateProgramWithSource(incSource)
			if err != nil {
				t.Fatalf("a refusal only the daemon can make came back from the create call: %v", err)
			}
			ctx.remoteIDs[srv] = rid
			return prog
		}, cl.InvalidContext, "CreateProgram", "unknown context 57005")
	})

	// The mirror: the create was fine, the one-way Build names a program the
	// daemon does not know.
	t.Run("unknown program, Build", func(t *testing.T) {
		refusedBuild(t, func(ctx *Context, srv *Server) cl.Program {
			prog, err := ctx.CreateProgramWithSource(incSource)
			if err != nil {
				t.Fatal(err)
			}
			prog.(*Program).id = 0xbeef
			return prog
		}, cl.InvalidProgram, "BuildProgram", "unknown program 48879")
	})

	// The same refusal, first waited on by an event, then by nothing: Finish
	// and a blocking write are clean.
	t.Run("unknown context, event wait", func(t *testing.T) {
		plat, srv, dev := lifecycleWorld(t)
		cctx, err := plat.CreateContext([]cl.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		ctx := cctx.(*Context)
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		good, err := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		rid := ctx.remoteIDs[srv]
		ctx.remoteIDs[srv] = 0xdead
		if _, err := ctx.CreateBuffer(cl.MemReadWrite, 64, nil); err != nil {
			t.Fatal(err)
		}
		ctx.remoteIDs[srv] = rid
		ev, err := q.EnqueueMarker()
		if err != nil {
			t.Fatal(err)
		}
		within(t, "the event wait", func() { err = ev.Wait() })
		wantRefusal(t, "event wait", err, cl.InvalidContext, "unknown context 57005")
		if err := ev.Wait(); err != nil {
			t.Fatalf("second wait on the same event: %v", err)
		}
		if err := q.Finish(); err != nil {
			t.Fatalf("Finish after the refusal was reported: %v", err)
		}
		if _, err := q.EnqueueWriteBuffer(good, true, 0, make([]byte, 64), nil); err != nil {
			t.Fatalf("blocking write on the clean server: %v", err)
		}
	})

	// Finish reports the refusal ahead of the queue failures it caused.
	t.Run("allocation refused, Finish", func(t *testing.T) {
		plat, _, dev := lifecycleWorld(t)
		ctx, err := plat.CreateContext([]cl.Device{dev})
		if err != nil {
			t.Fatal(err)
		}
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := ctx.CreateBuffer(cl.MemReadWrite, stingySize, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueWriteBuffer(bad, false, 0, make([]byte, stingySize), nil); err != nil {
			t.Fatal(err)
		}
		within(t, "Finish", func() { err = q.Finish() })
		wantRefusal(t, "Finish", err, cl.OutOfResources, "device memory exhausted")
		if err := q.Finish(); err != nil {
			t.Fatalf("second Finish: %v", err)
		}
		if err := bad.Release(); err != nil {
			t.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			t.Fatalf("Finish after releasing a buffer the daemon never had: %v", err)
		}
	})
}

// foreignDevice is a cl.Device of some other platform.
type foreignDevice struct{ cl.Device }

func (foreignDevice) Name() string { return "foreign" }

// Whatever the client can check about a create it reports from the create
// call, pipelined or not.
func TestClientCheckableCreateErrorsStaySynchronous(t *testing.T) {
	small := device.TestCPU("cpu0")
	small.GlobalMemSize = 1 << 20 // MaxAllocSize is a quarter of it
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {small, device.TestCPU("cpu1")},
		"node1": {device.TestCPU("cpu0")},
	})
	s0, err := tc.plat.ConnectServer("node0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tc.plat.ConnectServer("node1")
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := s0.Devices(), s1.Devices()
	cctx, err := tc.plat.CreateContext([]cl.Device{d0[0]})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cctx.(*Context)
	sent0, _ := s0.FrameCounts()

	check := func(what string, err error, code cl.ErrorCode) {
		t.Helper()
		if cl.CodeOf(err) != code {
			t.Errorf("%s = %v, want %v", what, err, code)
		}
	}
	_, err = tc.plat.CreateContext(nil)
	check("context without devices", err, cl.InvalidValue)
	_, err = tc.plat.CreateContext([]cl.Device{foreignDevice{}})
	check("context on a foreign device", err, cl.InvalidDevice)
	_, err = ctx.CreateQueue(foreignDevice{})
	check("queue on a foreign device", err, cl.InvalidDevice)
	_, err = ctx.CreateQueue(d0[1])
	check("queue on a device outside the context", err, cl.InvalidDevice)
	_, err = ctx.CreateQueue(d1[0])
	check("queue on another server's device", err, cl.InvalidDevice)
	_, err = ctx.CreateBuffer(cl.MemReadWrite, 0, nil)
	check("buffer of size 0", err, cl.InvalidBufferSize)
	_, err = ctx.CreateBuffer(cl.MemReadWrite, -4, nil)
	check("buffer of negative size", err, cl.InvalidBufferSize)
	_, err = ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 64, make([]byte, 32))
	check("MemCopyHostPtr with a short host slice", err, cl.InvalidValue)
	_, err = ctx.CreateBuffer(cl.MemReadWrite, int(d0[0].Info().MaxAllocSize)+1, nil)
	check("buffer above the device's MaxAllocSize", err, cl.InvalidBufferSize)
	_, err = ctx.CreateProgramWithSource("")
	check("program without source", err, cl.InvalidValue)
	if sent, _ := s0.FrameCounts(); sent != sent0 {
		t.Errorf("the refused creates put %d frames on the wire", sent-sent0)
	}
	if _, err := ctx.CreateBuffer(cl.MemReadWrite, int(d0[0].Info().MaxAllocSize), nil); err != nil {
		t.Errorf("buffer of exactly MaxAllocSize: %v", err)
	}

	// A disconnected server: contexts and queues are strict about it.
	tc.Kill("node0")
	waitServerDown(t, s0)
	_, err = tc.plat.CreateContext([]cl.Device{d0[0]})
	check("context on a disconnected server's device", err, cl.DeviceNotAvailable)
	_, err = ctx.CreateQueue(d0[0])
	check("queue on a disconnected server", err, cl.ServerLost)
}

// A re-create that re-attach recovery sends and the daemon refuses is
// what Reattach returns, with the create's code, and the server stays
// down: a half-recovered daemon must not count as connected, and the
// application may retry.
func TestReattachReportsRefusedRecreate(t *testing.T) {
	plat, srv, dev := lifecycleWorld(t)
	ctx, err := plat.CreateContext([]cl.Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateBuffer(cl.MemReadWrite, stingySize, nil); err != nil {
		t.Fatal(err)
	}
	srv.endpoint().Close()
	waitServerDown(t, srv)
	retained, err := srv.Reattach()
	if retained {
		t.Error("a daemon without session retention retained the session")
	}
	wantRefusal(t, "Reattach", err, cl.OutOfResources, protocol.MsgCreateBuffer.String())
	if srv.Connected() {
		t.Fatal("the server counts as connected after a refused re-create")
	}
}
