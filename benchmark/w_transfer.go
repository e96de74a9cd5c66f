package main

import (
	"bytes"
	"fmt"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
)

// Transfer sizes: 4 KiB is the per-message-cost regime, 8 MiB the
// per-byte regime. The host's last-level cache is far larger than any of
// them, so the MB/s here is loopback throughput, not memory bandwidth
// (both sizes and the LLC are printed in the host block).
var (
	xferSmall = 4 << 10
	xferMid   = 256 << 10
	xferBig   = 8 << 20
	// Operations per block of one round: blocks of writes and reads
	// alternate so drift hits both directions.
	xferSmallOps, xferMidOps, xferBigOps, xferCopyOps = 256, 16, 4, 2
)

type xferState struct {
	s      *stack
	ctx    cl.Context
	qA, qB cl.Queue
	bufs   map[int]cl.Buffer // size → buffer on daemon A
	src    cl.Buffer         // rewritten on A, copied on B
	dst    cl.Buffer
	mid    [2]cl.Buffer // 256 KiB forward pair
}

func (x *xferState) alloc(n int) (cl.Buffer, error) {
	return x.ctx.CreateBuffer(cl.MemReadWrite, n, nil)
}

func (x *xferState) close() {
	if x == nil {
		return
	}
	if x.ctx != nil {
		_ = x.ctx.Release() // tearing down; the stack closes next
	}
	x.s.close()
}

// runTransfer: the Figs. 7–8 shape. gcf framing and pools, protocol,
// daemon staging and the peer plane do all the work and vm none; writes,
// reads and copies cross the same layers in different directions.
func runTransfer(p *pass) error {
	sc := p.tr.scope(1)
	rng := p.rng()
	// Two payload variants per size, so every write changes the bytes the
	// next read must return.
	payloads := map[int][2][]byte{}
	for _, n := range []int{xferSmall, xferMid, xferBig} {
		var pair [2][]byte
		for v := range pair {
			pair[v] = make([]byte, n)
			rng.Read(pair[v])
		}
		payloads[n] = pair
	}
	back := make([]byte, xferBig)

	// fill creates the context, queues and buffers on a fresh stack and
	// runs the first cold operations.
	fill := func(st *xferState) error {
		s := st.s
		var err error
		if st.ctx, err = tracePlatform(s.plat, sc, "client").CreateContext(s.devs); err != nil {
			return err
		}
		if st.qA, err = st.ctx.CreateQueue(s.devs[0]); err != nil {
			return err
		}
		if st.qB, err = st.ctx.CreateQueue(s.devs[1]); err != nil {
			return err
		}
		for _, n := range []int{xferSmall, xferMid} {
			if st.bufs[n], err = st.alloc(n); err != nil {
				return err
			}
		}
		for i := range st.mid {
			if st.mid[i], err = st.alloc(xferMid); err != nil {
				return err
			}
		}
		// First cold operations: one write+read at the two message-sized
		// transfers fills the gcf frame pools, one forwarded copy dials the
		// peer pool. The 8 MiB buffers and operations are left to the
		// warm-up below: they are bound by memory bandwidth, which would
		// make set-up time follow the neighbours on the shared reference
		// host (with them, the fastest set-up of a run read 2.1–4.3 ms).
		for _, n := range []int{xferSmall, xferMid} {
			if _, err := st.qA.EnqueueWriteBuffer(st.bufs[n], true, 0, payloads[n][0], nil); err != nil {
				return err
			}
			if _, err := st.qA.EnqueueReadBuffer(st.bufs[n], true, 0, back[:n], nil); err != nil {
				return err
			}
		}
		if _, err := st.qA.EnqueueWriteBuffer(st.mid[0], true, 0, payloads[xferMid][0], nil); err != nil {
			return err
		}
		if _, err := st.qB.EnqueueCopyBuffer(st.mid[0], st.mid[1], 0, 0, xferMid, nil); err != nil {
			return err
		}
		return st.qB.Finish()
	}
	x, err := setUp(p, func() (*xferState, error) {
		s, err := dclStack("2d", clusterSpec{daemons: 2, devType: cl.DeviceTypeCPU, peers: true, w: p.w})
		if err != nil {
			return nil, err
		}
		st := &xferState{s: s, bufs: map[int]cl.Buffer{}}
		if err := fill(st); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	defer x.close()

	writes, reads := map[int]*samples{}, map[int]*samples{}
	for _, n := range []int{xferSmall, xferMid, xferBig} {
		writes[n], reads[n] = &samples{}, &samples{}
	}
	var copies samples
	variant := 0

	block := func(n, ops int) {
		buf := x.bufs[n]
		var last []byte
		for i := 0; i < ops; i++ {
			variant ^= 1
			last = payloads[n][variant]
			t0 := time.Now()
			_, err := x.qA.EnqueueWriteBuffer(buf, true, 0, last, nil)
			writes[n].add(time.Since(t0))
			p.check(err, "blocking write")
		}
		for i := 0; i < ops; i++ {
			dst := back[:n]
			t0 := time.Now()
			_, err := x.qA.EnqueueReadBuffer(buf, true, 0, dst, nil)
			reads[n].add(time.Since(t0))
			p.op(err == nil && bytes.Equal(dst, last), "blocking read of %d B: err=%v, bytes differ=%v", n, err, err == nil)
		}
	}
	// forwarded times a cross-daemon copy: the source is freshly
	// rewritten on daemon A, so daemon B must pull it over the peer plane.
	// Only copy+Finish is timed, as in BenchmarkForwardedCopy.
	forwarded := func(src, dst cl.Buffer, n int, into *samples) {
		variant ^= 1
		data := payloads[n][variant]
		_, err := x.qA.EnqueueWriteBuffer(src, true, 0, data, nil)
		if !p.check(err, "source rewrite") {
			return
		}
		t0 := time.Now()
		_, err = x.qB.EnqueueCopyBuffer(src, dst, 0, 0, n, nil)
		if err == nil {
			err = x.qB.Finish()
		}
		into.add(time.Since(t0))
		if !p.check(err, "forwarded copy") {
			return
		}
		_, err = x.qB.EnqueueReadBuffer(dst, true, 0, back[:n], nil)
		p.op(err == nil && bytes.Equal(back[:n], data), "forwarded copy read-back: err=%v", err)
	}

	// Untimed warm-up: the 8 MiB buffers, and a first 8 MiB write, read
	// and forwarded copy to fill the payload pools; their samples are
	// dropped.
	for _, b := range []*cl.Buffer{&x.src, &x.dst} {
		if *b, err = x.alloc(xferBig); err != nil {
			return err
		}
	}
	if x.bufs[xferBig], err = x.alloc(xferBig); err != nil {
		return err
	}
	block(xferBig, 1)
	forwarded(x.src, x.dst, xferBig, &copies)
	*writes[xferBig], *reads[xferBig], copies = nil, nil, nil

	p.begin()
	for round := 0; p.more(round, 1); round++ {
		endIter := sc.begin(fmt.Sprintf("transfer.round.%d", round))
		block(xferSmall, xferSmallOps)
		block(xferMid, xferMidOps)
		block(xferBig, xferBigOps)
		for i := 0; i < xferCopyOps; i++ {
			forwarded(x.src, x.dst, xferBig, &copies)
		}
		endIter()
	}

	mbps := func(n int, s samples) float64 { return float64(n) * float64(len(s)) / sum(s) / 1e6 }
	// No 8 MiB operation is in the gated slots: they are bound by memory
	// bandwidth, which neighbours on the shared reference host take away
	// for minutes at a time (README, Noise). They are reported as
	// write_MBps, read_MBps and copy_MBps. The gated per-byte time is the
	// 256 KiB write, whose payload stays in the cache: in the same runs its
	// fastest sample moved 3 % where the 8 MiB write's moved 25 %.
	p.slot(0, *writes[xferMid], 1)
	p.slot(1, *writes[xferSmall], 1)
	p.slot(2, *reads[xferSmall], 1)
	p.r.put("write_MBps", mbps(xferBig, *writes[xferBig]), len(*writes[xferBig]))
	p.r.put("read_MBps", mbps(xferBig, *reads[xferBig]), len(*reads[xferBig]))
	p.r.put("copy_MBps", mbps(xferBig, copies), len(copies))
	p.r.put("small_write_us", median(*writes[xferSmall])*1e6, len(*writes[xferSmall]))
	p.r.put("small_read_us", median(*reads[xferSmall])*1e6, len(*reads[xferSmall]))
	if !p.traced() {
		return nil
	}

	c0 := kernel.WorkGroupCompiles()
	block(xferSmall, 1)
	p.wgCompiles += int(kernel.WorkGroupCompiles() - c0)

	// One maximum-size gcf frame per forward: the peer plane's
	// per-transfer cost, where copy_MBps is its per-byte cost.
	var mids samples
	start := time.Now()
	for len(mids) < 8 || time.Since(start) < p.loop {
		forwarded(x.mid[0], x.mid[1], xferMid, &mids)
	}
	p.r.put("daemon.forward_256k_MBps", mbps(xferMid, mids), len(mids))
	return nil
}
