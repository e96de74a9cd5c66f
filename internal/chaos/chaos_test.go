package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

const scaleSrc = `
kernel void scale(global float* data, float f, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] * f; }
}
`

// startTestbed starts a chaos suite's cluster, peer data plane up.
func startTestbed(t *testing.T, spec testbed.Spec) *testbed.Testbed {
	t.Helper()
	spec.Peers = true
	return testbed.StartTest(t, spec)
}

// newPlatform builds a client platform dialing tb as ClientID.
func newPlatform(tb *testbed.Testbed) *client.Platform {
	return client.NewPlatform(client.Options{Dialer: tb.Dialer(ClientID), ClientName: "chaos"})
}

// waitDown blocks until the server's connection died and every command in
// flight on it failed (the Down channel closes after that, so once it
// fires the directories derive the loss and no failure is still landing).
func waitDown(t *testing.T, srv *client.Server) {
	t.Helper()
	select {
	case <-srv.Down():
	case <-time.After(10 * time.Second):
		t.Fatal("server never noticed its connection died")
	}
}

// checkDirectories holds every buffer's region directory to the per-span
// invariants the coherence package's tests check on the directory itself:
// at most one Modified copy, standing alone, and every byte held by a
// live server, cached on the host or Lost.
func checkDirectories(t *testing.T, when string, bufs []cl.Buffer, servers map[string]*client.Server) {
	t.Helper()
	for bi, b := range bufs {
		for _, r := range b.(*client.Buffer).RegionStates() {
			fail := func(what string) {
				t.Helper()
				t.Fatalf("%s: buf %d range [%d,%d): %s (host %s, servers %v, lost %v)",
					when, bi, r.Off, r.End, what, r.Host, r.Servers, r.Lost)
			}
			modified, valid := 0, 0
			for addr, st := range r.Servers {
				if st == "I" {
					continue
				}
				if !servers[addr].Connected() {
					fail("a valid copy on a dead server")
				}
				valid++
				if st == "M" {
					modified++
				}
			}
			if r.Host != "I" {
				valid++
				if r.Host == "M" {
					modified++
				}
			}
			switch {
			case modified > 1:
				fail("two Modified copies")
			case modified == 1 && valid > 1:
				fail("a Modified copy beside a valid one")
			case valid == 0 && !r.Lost:
				fail("no valid copy and not Lost")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Property test: randomized programs under a seeded fault schedule,
// byte-compared against a fault-free oracle.

// oracleBuf mirrors one buffer's contents and the guaranteed location of
// valid copies. It deliberately models only what the sequential program
// guarantees — per byte: the value, whether the host cache holds it,
// which daemons hold it, and (when no copy survives a failure) which
// daemon took the only copy down with it. Faults are injected only
// between fully-settled operations, which is what makes this mirror
// exact rather than conservative.
type oracleBuf struct {
	val     []byte
	host    []bool
	hold    []uint8 // bitmask over server indices
	lost    []int8  // server index whose death lost the byte; -1 = not lost
	lostGen []int   // server connection generation the loss was recorded on
}

func newOracleBuf(size int) *oracleBuf {
	o := &oracleBuf{
		val:     make([]byte, size),
		host:    make([]bool, size),
		hold:    make([]uint8, size),
		lost:    make([]int8, size),
		lostGen: make([]int, size),
	}
	for i := range o.host {
		o.host[i] = true // CreateBuffer: conceptual host copy of zeros
		o.lost[i] = -1
	}
	return o
}

func (o *oracleBuf) write(x int, off int, data []byte) {
	for i, b := range data {
		o.val[off+i] = b
		o.host[off+i] = false
		o.hold[off+i] = 1 << x
		o.lost[off+i] = -1
	}
}

func (o *oracleBuf) copyFrom(x int, src *oracleBuf, soff, doff, n int) {
	for i := 0; i < n; i++ {
		o.val[doff+i] = src.val[soff+i]
		o.host[doff+i] = false
		o.hold[doff+i] = 1 << x
		o.lost[doff+i] = -1
	}
	for i := soff; i < soff+n; i++ {
		src.hold[i] |= 1 << x
	}
}

func (o *oracleBuf) scale(x int, offFloats, nFloats int, f float32) {
	for i := 0; i < nFloats; i++ {
		p := 4 * (offFloats + i)
		v := math.Float32frombits(binary.LittleEndian.Uint32(o.val[p:]))
		binary.LittleEndian.PutUint32(o.val[p:], math.Float32bits(v*f))
		for b := p; b < p+4; b++ {
			o.host[b] = false
			o.hold[b] = 1 << x
			o.lost[b] = -1
		}
	}
}

func (o *oracleBuf) noteRead(off, n int) {
	for i := off; i < off+n; i++ {
		o.host[i] = true
	}
}

// serverDown withdraws server x's claims; sole-copy bytes become lost,
// stamped with the connection generation that died.
func (o *oracleBuf) serverDown(x, gen int) {
	for i := range o.hold {
		if o.hold[i]&(1<<x) == 0 {
			continue
		}
		o.hold[i] &^= 1 << x
		if o.hold[i] == 0 && !o.host[i] {
			o.lost[i] = int8(x)
			o.lostGen[i] = gen
		}
	}
}

// restore re-installs x's claims after a retained re-attach — only for
// losses recorded on the connection the retained session lived on: a
// loss that survived an unretained reattach is gone for good.
func (o *oracleBuf) restore(x, gen int) {
	for i := range o.lost {
		if o.lost[i] == int8(x) && o.lostGen[i] == gen {
			o.lost[i] = -1
			o.hold[i] = 1 << x
		}
	}
}

// anyLost reports whether [off, off+n) contains a lost byte.
func (o *oracleBuf) anyLost(off, n int) bool {
	for i := off; i < off+n; i++ {
		if o.lost[i] >= 0 {
			return true
		}
	}
	return false
}

// lostRanges returns the maximal lost runs (what Buffer.LostRanges must
// report).
func (o *oracleBuf) lostRanges() [][2]int {
	var out [][2]int
	for i := 0; i < len(o.lost); i++ {
		if o.lost[i] < 0 {
			continue
		}
		j := i
		for j < len(o.lost) && o.lost[j] >= 0 {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// payload derives a deterministic float-safe byte pattern (values in
// [1,2), so repeated exact scaling by 2 and 0.5 never leaves the exact
// range of float32).
func payload(tag, off, n int) []byte {
	out := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		v := 1 + float32((tag*131+off+i)%997)/2048
		binary.LittleEndian.PutUint32(out[i:], math.Float32bits(v))
	}
	return out
}

func TestChaosProperty(t *testing.T) {
	// Seed 1's schedule leaves a genuinely lost range at the end (sole
	// Modified copy died); seed 7 exercises kill/restart/blip recovery
	// with everything re-homed or rewritten.
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosProgram(t, seed)
		})
	}
}

// TestChaosSeedSweep runs the same randomized program over a wider seed
// range — cheap (the fault schedules are deterministic and simnet is
// in-memory), and the variety is what flushes out schedule-dependent
// recovery bugs.
func TestChaosSeedSweep(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runChaosProgram(t, seed) })
	}
}

func runChaosProgram(t *testing.T, seed int64) {
	const (
		numOps   = 48
		bufSize  = 1024 // bytes; 256 floats
		nFloats  = bufSize / 4
		numBufs  = 2
		numNodes = 3
	)
	nodes := map[string][]device.Config{
		"n0": {device.TestCPU("cpu-n0")},
		"n1": {device.TestCPU("cpu-n1")},
		"n2": {device.TestCPU("cpu-n2")},
	}
	cluster := startTestbed(t, testbed.Spec{Nodes: nodes, Retain: time.Minute})
	plat := newPlatform(cluster)
	addrs := cluster.Addrs()
	servers := map[string]*client.Server{}
	sIdx := map[string]int{}
	for i, addr := range addrs {
		srv, err := plat.ConnectServer(addr)
		if err != nil {
			t.Fatalf("connect %s: %v", addr, err)
		}
		servers[addr] = srv
		sIdx[addr] = i
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != numNodes {
		t.Fatalf("devices: %v %v", devs, err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	queues := map[string]cl.Queue{}
	for i, addr := range addrs {
		q, err := ctx.CreateQueue(devs[i])
		if err != nil {
			t.Fatal(err)
		}
		queues[addr] = q
	}
	prog, err := ctx.CreateProgramWithSource(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]cl.Buffer, numBufs)
	oracle := make([]*oracleBuf, numBufs)
	for i := range bufs {
		b, err := ctx.CreateBuffer(cl.MemReadWrite, bufSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
		oracle[i] = newOracleBuf(bufSize)
	}

	rng := rand.New(rand.NewSource(seed))
	plan := NewPlan(seed, numOps, addrs)
	alive := map[string]bool{}
	srvGen := map[string]int{} // mirrors each server's connection generation
	for _, a := range addrs {
		alive[a] = true
	}
	aliveList := func() []string {
		var out []string
		for _, a := range addrs {
			if alive[a] {
				out = append(out, a)
			}
		}
		return out
	}

	applyFault := func(f Fault) {
		srv := servers[f.Target]
		switch f.Kind {
		case Kill:
			if cluster.Daemon(f.Target) == nil {
				return
			}
			t.Logf("fault: kill %s", f.Target)
			cluster.Kill(f.Target)
			waitDown(t, srv)
			checkDirectories(t, "after the sweep of "+f.Target, bufs, servers)
			for _, o := range oracle {
				o.serverDown(sIdx[f.Target], srvGen[f.Target])
			}
			alive[f.Target] = false
		case Restart:
			if cluster.Daemon(f.Target) != nil {
				return
			}
			t.Logf("fault: restart %s", f.Target)
			if err := cluster.Restart(f.Target); err != nil {
				t.Fatalf("restart %s: %v", f.Target, err)
			}
			retained, err := srv.Reattach()
			if err != nil {
				t.Fatalf("reattach %s: %v", f.Target, err)
			}
			if retained {
				t.Fatalf("reattach after restart claims retained state")
			}
			checkDirectories(t, "after the re-attach of "+f.Target, bufs, servers)
			srvGen[f.Target]++
			alive[f.Target] = true
		case BlipLink:
			if !alive[f.Target] {
				return
			}
			t.Logf("fault: blip %s", f.Target)
			cluster.Sever(ClientID, f.Target)
			waitDown(t, srv)
			cluster.Heal(ClientID, f.Target)
			retained, err := srv.Reattach()
			if err != nil {
				t.Fatalf("reattach %s after blip: %v", f.Target, err)
			}
			if !retained {
				t.Fatalf("daemon with retention dropped the session on a blip")
			}
			checkDirectories(t, "after the restore of "+f.Target, bufs, servers)
			downGen := srvGen[f.Target]
			srvGen[f.Target]++
			for _, o := range oracle {
				o.serverDown(sIdx[f.Target], downGen)
				o.restore(sIdx[f.Target], downGen)
			}
		case Spike:
			if !alive[f.Target] {
				return
			}
			cluster.Net.InjectDelayAt(ClientID, f.Target, 2048, 2*time.Millisecond)
		}
	}

	// probeLost asserts a read over a lost range reports cl.DataLost.
	probeLost := func(q cl.Queue, bi, off, n int) {
		t.Helper()
		dst := make([]byte, n)
		_, err := q.EnqueueReadBuffer(bufs[bi], true, off, dst, nil)
		if cl.CodeOf(err) != cl.DataLost {
			t.Fatalf("read over lost range [%d,%d) of buf %d: err=%v, want CL_DATA_LOST_WWU", off, off+n, bi, err)
		}
	}

	for op := 0; op < numOps; op++ {
		for _, f := range plan.Due(op) {
			applyFault(f)
		}
		live := aliveList()
		target := live[rng.Intn(len(live))]
		q, x := queues[target], sIdx[target]
		bi := rng.Intn(numBufs)
		offF := rng.Intn(nFloats)
		lnF := 1 + rng.Intn(nFloats-offF)
		off, ln := 4*offF, 4*lnF

		switch kind := rng.Intn(10); {
		case kind < 4: // write
			data := payload(op, off, ln)
			if _, err := q.EnqueueWriteBuffer(bufs[bi], true, off, data, nil); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			oracle[bi].write(x, off, data)
		case kind < 6: // copy (or lost-range probe)
			si := rng.Intn(numBufs)
			di := (si + 1) % numBufs
			if oracle[si].anyLost(off, ln) {
				probeLost(q, si, off, ln)
				continue
			}
			ev, err := q.EnqueueCopyBuffer(bufs[si], bufs[di], off, off, ln, nil)
			if err != nil {
				t.Fatalf("op %d copy: %v", op, err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatalf("op %d copy wait: %v", op, err)
			}
			oracle[di].copyFrom(x, oracle[si], off, off, ln)
		case kind < 7: // kernel scale over a sub-buffer view
			if oracle[bi].anyLost(off, ln) {
				probeLost(q, bi, off, ln)
				continue
			}
			factor := float32(2.0)
			if op%2 == 1 {
				factor = 0.5
			}
			view, err := bufs[bi].CreateSubBuffer(off, ln)
			if err != nil {
				t.Fatalf("op %d view: %v", op, err)
			}
			if err := k.SetArg(0, view); err != nil {
				t.Fatalf("op %d arg0: %v", op, err)
			}
			if err := k.SetArg(1, factor); err != nil {
				t.Fatal(err)
			}
			if err := k.SetArg(2, int32(lnF)); err != nil {
				t.Fatal(err)
			}
			ev, err := q.EnqueueNDRangeKernel(k, []int{lnF}, nil, nil)
			if err != nil {
				t.Fatalf("op %d kernel: %v", op, err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatalf("op %d kernel wait: %v", op, err)
			}
			oracle[bi].scale(x, offF, lnF, factor)
		default: // read and verify
			if oracle[bi].anyLost(off, ln) {
				probeLost(q, bi, off, ln)
				continue
			}
			dst := make([]byte, ln)
			if _, err := q.EnqueueReadBuffer(bufs[bi], true, off, dst, nil); err != nil {
				t.Fatalf("op %d read: %v", op, err)
			}
			if !bytes.Equal(dst, oracle[bi].val[off:off+ln]) {
				t.Fatalf("op %d: read [%d,%d) of buf %d differs from oracle", op, off, off+ln, bi)
			}
			oracle[bi].noteRead(off, ln)
		}
		if op%8 == 7 {
			for _, a := range aliveList() {
				if err := queues[a].Finish(); err != nil {
					t.Fatalf("op %d finish %s: %v", op, a, err)
				}
			}
		}
	}

	// Final audit: the implementation's Lost ranges must be exactly the
	// oracle's; every lost range reads back as CL_DATA_LOST_WWU, every
	// surviving range byte-identical to the oracle.
	live := aliveList()
	q := queues[live[0]]
	for bi, o := range oracle {
		cb := bufs[bi].(*client.Buffer)
		implLost := cb.LostRanges()
		wantLost := o.lostRanges()
		t.Logf("buf %d: %d lost ranges %v", bi, len(wantLost), wantLost)
		if len(implLost) != len(wantLost) {
			t.Fatalf("buf %d: lost ranges %v, oracle %v", bi, implLost, wantLost)
		}
		for i := range implLost {
			if implLost[i] != wantLost[i] {
				t.Fatalf("buf %d: lost ranges %v, oracle %v", bi, implLost, wantLost)
			}
		}
		for _, lr := range wantLost {
			probeLost(q, bi, lr[0], lr[1]-lr[0])
		}
		// Surviving runs: read and compare.
		pos := 0
		for pos < bufSize {
			if o.lost[pos] >= 0 {
				pos++
				continue
			}
			end := pos
			for end < bufSize && o.lost[end] < 0 {
				end++
			}
			dst := make([]byte, end-pos)
			if _, err := q.EnqueueReadBuffer(bufs[bi], true, pos, dst, nil); err != nil {
				t.Fatalf("final read buf %d [%d,%d): %v", bi, pos, end, err)
			}
			if !bytes.Equal(dst, o.val[pos:end]) {
				t.Fatalf("final state of buf %d [%d,%d) differs from fault-free oracle", bi, pos, end)
			}
			pos = end
		}
	}
	for _, a := range live {
		if err := queues[a].Finish(); err != nil {
			t.Fatalf("final finish %s: %v", a, err)
		}
	}
}
