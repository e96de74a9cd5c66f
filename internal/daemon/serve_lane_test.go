package daemon

import (
	"encoding/binary"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/kernel"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/serve"
	"dopencl/internal/vm"
)

// Two kernels with one signature and different results.
const (
	laneAxpbSource = `kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}`
	laneAxmbSource = `kernel void axmb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f - 1; }
}`
)

// laneSession starts a raw session on d that has built kernel 3 from
// laneAxpbSource and kernel 5 from laneAxmbSource in context 1 on the
// given unit (an unmanaged Hello).
func laneSession(t *testing.T, d *Daemon, unit uint64) (*leaseFrames, *session) {
	t.Helper()
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(d, serverEP)
	sess.start()
	gs := startGraphSession(clientEP)
	t.Cleanup(func() { gs.ep.Close() })
	f := &leaseFrames{t: t, gs: gs}
	ok := func(what string, st cl.ErrorCode) {
		t.Helper()
		if st != cl.Success {
			t.Fatalf("%s: %v", what, st)
		}
	}
	ok("hello", f.ask(protocol.MsgHello, hello("")))
	ok("context", f.createContext(1, unit))
	for _, k := range []struct {
		prog, kern uint64
		src, name  string
	}{{2, 3, laneAxpbSource, "axpb"}, {4, 5, laneAxmbSource, "axmb"}} {
		ok("program", f.tell(protocol.MsgCreateProgram, func(w *protocol.Writer) { w.U64(k.prog); w.U64(1); w.String(k.src) }))
		ok("build", f.tell(protocol.MsgBuildProgram, func(w *protocol.Writer) { w.U64(k.prog); w.String("") }))
		ok("kernel", f.tell(protocol.MsgCreateKernel, func(w *protocol.Writer) { w.U64(k.kern); w.U64(k.prog); w.String(k.name) }))
	}
	return f, sess
}

// openLane asks for serve lane id on unit.
func (f *leaseFrames) openLane(id uint64, unit uint32) cl.ErrorCode {
	f.t.Helper()
	return f.ask(protocol.MsgServeOpen, func(w *protocol.Writer) {
		protocol.PutServeOpen(w, protocol.ServeOpen{ServeID: id, Weight: 1, MaxPending: 8, UnitID: unit})
	})
}

// laneJob is an 8-int job of kernel k with factor 3 whose input is base,
// base+1, ...
func laneJob(jobID, k uint64, base int32) protocol.ServeJob {
	const n = 8
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], uint32(base+int32(i)))
	}
	return protocol.ServeJob{
		JobID: jobID, KernelID: k,
		Args: []protocol.GraphKernelArg{
			{Kind: protocol.ArgValScalar}, {Kind: protocol.ArgValScalar},
			{Kind: protocol.ArgValScalar, Raw: 3}, {Kind: protocol.ArgValScalar, Raw: n},
		},
		InputArg: 0, OutputArg: 1, Input: in, OutSize: 4 * n, Global: []int{n},
	}
}

// serveResults collects the results of lane id until want jobs have
// answered, failing after gs.waitNotify's bound.
func (f *leaseFrames) serveResults(id uint64, want int) map[uint64]protocol.ServeResult {
	f.t.Helper()
	got := map[uint64]protocol.ServeResult{}
	for len(got) < want {
		env := f.gs.waitNotify(f.t, protocol.MsgServeResult)
		res := protocol.GetServeResults(env.Body)
		if env.Body.Err() != nil || res.ServeID != id {
			f.t.Fatalf("serve results %+v for lane %d (%v)", res, id, env.Body.Err())
		}
		for _, r := range res.Results {
			r.Output = append([]byte(nil), r.Output...)
			got[r.JobID] = r
		}
	}
	return got
}

// checkLaneOutput verifies out[i] == (base+i)*3 + plus.
func checkLaneOutput(t *testing.T, what string, r protocol.ServeResult, base, plus int32) {
	t.Helper()
	if r.Status != 0 || len(r.Output) != 32 {
		t.Fatalf("%s: status %d, %d output bytes (%s)", what, r.Status, len(r.Output), r.Msg)
	}
	for i := 0; i < 8; i++ {
		if got, want := int32(binary.LittleEndian.Uint32(r.Output[4*i:])), (base+int32(i))*3+plus; got != want {
			t.Fatalf("%s: out[%d] = %d, want %d", what, i, got, want)
		}
	}
}

// A serve lane runs on the unit it was opened on. Unit 0's compute engine
// is held by a long modeled launch; jobs of a lane opened on unit 1 must
// complete meanwhile. They used to run on unit 0 whatever the lane, and
// waited for it.
func TestServeLaneRunsOnItsDevice(t *testing.T) {
	spin := `kernel void spin(global int* o) { o[get_global_id(0)] = 1; }`
	const items = 64
	args := []vm.Arg{vm.GlobalArg(make([]byte, 4*items))}
	perItem, err := device.PrewarmCost(spin, "spin", args, []int{items}, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := device.TestCPU("slow0")
	slow.Mode = device.ExecModeled
	slow.ComputeUnits = 1
	slow.InstrPerSec = perItem * items / 10 // one launch holds the engine 10 s
	d, err := New(Config{Name: "srv", Platform: native.NewPlatform("p", "v", []device.Config{slow, device.TestGPU("gpu0")})})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := kernel.Compile(spin)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel("spin")
	held := make(chan struct{})
	go func() {
		defer close(held)
		if _, err := d.devices[0].(*native.Device).Sim().Execute(vm.Launch{Prog: prog, Kernel: fn, Args: args, GlobalSize: []int{items}}); err != nil {
			t.Error(err)
		}
	}()

	f, _ := laneSession(t, d, 1)
	if st := f.openLane(7, 1); st != cl.Success {
		t.Fatalf("serve lane on unit 1: %v", st)
	}
	f.gs.oneway(t, protocol.MsgServeSubmit, func(w *protocol.Writer) {
		protocol.PutServeSubmit(w, protocol.ServeSubmit{ServeID: 7, Jobs: []protocol.ServeJob{laneJob(1, 3, 10), laneJob(2, 3, 20)}})
	})
	got := f.serveResults(7, 2)
	checkLaneOutput(t, "job 1", got[1], 10, 1)
	checkLaneOutput(t, "job 2", got[2], 20, 1)
	select {
	case <-held:
		t.Error("unit 0's launch had ended before the unit-1 jobs came back: the test proves nothing")
	default:
	}
}

// On a managed daemon a lane may be opened only on a unit of the
// session's lease, as a queue may.
func TestServeLaneUsesOnlyItsLease(t *testing.T) {
	d, gs, _ := managedSession(t)
	f := &leaseFrames{t: t, gs: gs}
	d.Allow("lease-a", []uint32{1})
	if st := f.openLane(1, 1); st != cl.InvalidDevice {
		t.Errorf("a session without a Hello opened a lane on a leased unit: %v", st)
	}
	if st := f.ask(protocol.MsgHello, hello("lease-a")); st != cl.Success {
		t.Fatalf("hello lease-a: %v", st)
	}
	if st := f.openLane(2, 0); st != cl.InvalidDevice {
		t.Errorf("a lease-a session opened a lane on unit 0, which it does not lease: %v", st)
	}
	if st := f.openLane(3, 9); st != cl.InvalidDevice {
		t.Errorf("a lease-a session opened a lane on unit 9, which does not exist: %v", st)
	}
	if st := f.openLane(4, 1); st != cl.Success {
		t.Fatalf("a lease-a session could not open a lane on its unit: %v", st)
	}
	d.Revoke("lease-a")
	if st := f.openLane(5, 1); st != cl.InvalidDevice {
		t.Errorf("after the revoke of lease-a its session opened a lane: %v", st)
	}
}

// The dispatcher coalesces jobs of one compiled kernel, never jobs whose
// program fingerprints merely match: here the second kernel's fingerprint
// is forged to the first's, and both jobs are queued within one coalescing
// window. Each must come back with its own kernel's output; they used to
// share a dispatch under the first job's kernel.
func TestServeCoalescesByCompiledKernel(t *testing.T) {
	plat := native.NewPlatform("p", "v", []device.Config{device.TestCPU("cpu0")})
	d, err := New(Config{Name: "srv", Platform: plat, ServeWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f, sess := laneSession(t, d, 0)
	if st := f.openLane(7, 0); st != cl.Success {
		t.Fatalf("serve lane: %v", st)
	}
	sess.mu.Lock()
	sess.serveProg = map[uint64]serve.Key{
		3: serveProgKey(laneAxpbSource, "axpb"),
		5: serveProgKey(laneAxpbSource, "axpb"), // the forged collision
	}
	sess.mu.Unlock()
	f.gs.oneway(t, protocol.MsgServeSubmit, func(w *protocol.Writer) {
		protocol.PutServeSubmit(w, protocol.ServeSubmit{ServeID: 7, Jobs: []protocol.ServeJob{laneJob(1, 3, 10), laneJob(2, 5, 20)}})
	})
	got := f.serveResults(7, 2)
	checkLaneOutput(t, "axpb job", got[1], 10, 1)
	checkLaneOutput(t, "axmb job", got[2], 20, -1)
}
