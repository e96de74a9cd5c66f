package client

import (
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/serve"
)

// The client side of the serve plane: a ServeSession is a lightweight
// lane to one daemon for many small jobs against shared precompiled
// programs. Submit freezes a job's whole argument set into wire form and
// ships it as a pipelined one-way frame; the daemon coalesces compatible
// jobs from every tenant into batched VM dispatches and pushes per-job
// results back as MsgServeResult notifications, resolved here into the
// job's Future.
//
// Two layers of result caching keep warm traffic off the wire and off
// the daemon: the daemon caches buffer-free jobs (shared across all
// sessions, exact by construction), and this session caches every job —
// buffer-referencing ones stamped with the coherence generation of each
// input range, so any write to an input buffer silently invalidates the
// derived results. A warm hit here completes the Future without sending
// a single byte.
//
// Admission is bounded at both ends: Submit refuses with cl.Busy once
// the session's in-flight share is full (mirroring the daemon's weighted
// fair queue), so backpressure reaches the submitter instead of queueing
// unboundedly.

// JobSpec describes one serve job. Args must carry a value for every
// kernel parameter; the entries at InputArg and OutputArg are ignored
// (those slots are bound to the job-private Input payload and output
// slab). Set InputArg/OutputArg to -1 when the kernel has no such slot.
type JobSpec struct {
	Kernel    cl.Kernel
	Args      []any
	InputArg  int
	OutputArg int
	Input     []byte
	OutSize   int
	Offset    []int
	Global    []int
	Local     []int
}

// ServeSession is an open serve lane to one daemon.
type ServeSession struct {
	ctx        *Context
	srv        *Server
	id         uint64
	maxPending int

	cache *serve.Cache

	mu       sync.Mutex
	pending  map[uint64]*pendingServeJob
	nextJob  uint64
	inflight int
	closed   bool
	closeErr error
}

// pendingServeJob tracks one submitted job awaiting its result.
type pendingServeJob struct {
	fut    *serve.Future
	key    serve.Key
	stamps []serve.Stamp
}

// OpenServe opens a serve session on dev: its jobs run on that device of
// the server hosting it, and a managed daemon refuses a device outside the
// platform's lease. Weight is the session's share in the daemon's
// weighted fair queue relative to other serve sessions (0 means 1);
// maxPending bounds the session's in-flight jobs (0 means 256) — Submit
// beyond it returns cl.Busy.
func (c *Context) OpenServe(dev cl.Device, weight, maxPending int) (*ServeSession, error) {
	d, ok := dev.(*Device)
	if !ok {
		return nil, cl.Errf(cl.InvalidDevice, "foreign device object")
	}
	srv := d.srv
	if maxPending <= 0 {
		maxPending = 256
	}
	ss := &ServeSession{
		ctx: c, srv: srv, id: c.plat.newID(),
		maxPending: maxPending,
		cache:      serve.NewCache(0, 0),
		pending:    map[uint64]*pendingServeJob{},
	}
	if _, err := srv.call(protocol.MsgServeOpen, func(w *protocol.Writer) {
		protocol.PutServeOpen(w, protocol.ServeOpen{
			ServeID: ss.id, Weight: uint32(weight), MaxPending: uint32(maxPending), UnitID: d.unitID,
		})
	}); err != nil {
		return nil, err
	}
	srv.registerServe(ss)
	return ss, nil
}

// Submit freezes the job and ships it to the daemon, returning a Future
// that resolves when the result notification arrives. A warm cache hit
// resolves the Future immediately with zero wire traffic. Submit returns
// cl.Busy when the session's in-flight share is full — the caller sheds
// or retries; nothing queues client-side.
func (ss *ServeSession) Submit(spec JobSpec) (*serve.Future, error) {
	k, ok := spec.Kernel.(*Kernel)
	if !ok || k.prog.ctx != ss.ctx {
		return nil, cl.Errf(cl.InvalidKernel, "serve: kernel is not of this context")
	}
	wire, bufs, err := ss.freezeArgs(k, spec)
	if err != nil {
		return nil, err
	}
	key := ss.jobKey(k, spec, wire)

	if out, hit := ss.cache.Get(key); hit {
		fut := serve.NewFuture()
		fut.Complete(serve.Result{Output: out, Cached: true}, nil)
		return fut, nil
	}

	ss.mu.Lock()
	if ss.closed {
		err := ss.closeErr
		ss.mu.Unlock()
		if err == nil {
			err = cl.Errf(cl.InvalidOperation, "serve session closed")
		}
		return nil, err
	}
	if ss.inflight >= ss.maxPending {
		n := ss.inflight
		ss.mu.Unlock()
		return nil, cl.Errf(cl.Busy, "serve: %d jobs in flight (share %d)", n, ss.maxPending)
	}
	ss.inflight++
	ss.nextJob++
	jobID := ss.nextJob
	ss.mu.Unlock()

	fail := func(err error) (*serve.Future, error) {
		ss.mu.Lock()
		ss.inflight--
		ss.mu.Unlock()
		return nil, err
	}

	// Make every buffer argument's range valid on the daemon before the
	// submit: the transfers ride the same ordered connection, and the
	// gates block until the daemon-side writes have completed, so the
	// batch dispatcher can never read stale bytes.
	for _, buf := range bufs {
		q, err := ss.ctx.coherenceQueue(ss.srv)
		if err != nil {
			return fail(err)
		}
		gates, err := buf.span().validAsKernelArg(q)
		if err != nil {
			return fail(err)
		}
		for _, g := range gates {
			if g == nil {
				continue
			}
			if err := g.Wait(); err != nil {
				return fail(err)
			}
		}
	}

	// Stamp the input ranges only now, after the coherence transfers have
	// settled: ensureValid's own directory updates advance the same
	// generation counter, so an earlier snapshot would go stale by the
	// time the result lands and the cached entry could never hit.
	stamps := bufferStamps(bufs)

	fut := serve.NewFuture()
	ss.mu.Lock()
	if ss.closed {
		err := ss.closeErr
		ss.inflight--
		ss.mu.Unlock()
		if err == nil {
			err = cl.Errf(cl.InvalidOperation, "serve session closed")
		}
		return nil, err
	}
	ss.pending[jobID] = &pendingServeJob{fut: fut, key: key, stamps: stamps}
	ss.mu.Unlock()

	job := protocol.ServeJob{
		JobID: jobID, KernelID: k.id, Args: wire,
		InputArg: int32(spec.InputArg), OutputArg: int32(spec.OutputArg),
		Input: spec.Input, OutSize: int64(spec.OutSize),
		GOffset: spec.Offset, Global: spec.Global, Local: spec.Local,
	}
	if err := ss.srv.send(protocol.MsgServeSubmit, func(w *protocol.Writer) {
		protocol.PutServeSubmit(w, protocol.ServeSubmit{ServeID: ss.id, Jobs: []protocol.ServeJob{job}})
	}); err != nil {
		ss.mu.Lock()
		delete(ss.pending, jobID)
		ss.inflight--
		ss.mu.Unlock()
		return nil, err
	}
	return fut, nil
}

// freezeArgs converts the job's argument values to wire form, enforcing
// the serve plane's read-only contract for session buffers client-side
// (the daemon enforces it independently).
func (ss *ServeSession) freezeArgs(k *Kernel, spec JobSpec) ([]protocol.GraphKernelArg, []*Buffer, error) {
	info := k.ArgInfo()
	if len(spec.Args) != len(info) {
		return nil, nil, cl.Errf(cl.InvalidKernelArgs, "serve: kernel %s takes %d arguments, spec carries %d",
			k.name, len(info), len(spec.Args))
	}
	inIdx, outIdx := spec.InputArg, spec.OutputArg
	if inIdx >= len(info) || outIdx >= len(info) || (inIdx >= 0 && inIdx == outIdx) {
		return nil, nil, cl.Errf(cl.InvalidArgIndex, "serve: bad input/output slots %d/%d", inIdx, outIdx)
	}
	if len(spec.Input) > 0 && inIdx < 0 {
		return nil, nil, cl.Errf(cl.InvalidArgValue, "serve: input payload without an input slot")
	}
	if spec.OutSize > 0 && outIdx < 0 {
		return nil, nil, cl.Errf(cl.InvalidArgValue, "serve: output size without an output slot")
	}
	wire := make([]protocol.GraphKernelArg, len(info))
	var bufs []*Buffer
	for i := range info {
		if i == inIdx || i == outIdx {
			if info[i].Kind != kernel.ArgGlobalBuf {
				return nil, nil, cl.Errf(cl.InvalidArgValue, "serve: slot %d of %s is not a global buffer", i, k.name)
			}
			wire[i] = protocol.GraphKernelArg{Kind: protocol.ArgValScalar}
			continue
		}
		val, buf, err := k.encodeArg(i, spec.Args[i])
		if err != nil {
			return nil, nil, err
		}
		if buf != nil {
			if !info[i].ReadOnly {
				return nil, nil, cl.Errf(cl.InvalidArgValue,
					"serve: argument %d of %s is writable — session buffers may only bind read-only serve arguments", i, k.name)
			}
			bufs = append(bufs, buf)
		}
		wire[i] = val
	}
	return wire, bufs, nil
}

// serveBaseKey memoizes the job-key prefix that is constant per kernel:
// the program source, build options and kernel name. Submit folds only
// per-job fields on top via serve.Resume, so the (large) source string
// is hashed once per kernel rather than once per job.
func (k *Kernel) serveBaseKey() serve.Key {
	k.serveKeyOnce.Do(func() {
		h := serve.NewHasher()
		h.String(k.prog.src)
		h.String(k.prog.buildOpts)
		h.String(k.name)
		k.serveKeyBase = h.Sum()
	})
	return k.serveKeyBase
}

// jobKey derives the job's content-addressed cache key. The key covers
// the program build identity, kernel name, frozen wire arguments, input
// payload and launch shape; each buffer argument contributes its
// identity (ID + range) through the wire args — its contents enter
// through the coherence stamps (bufferStamps), not the hash, so a cached
// entry survives exactly as long as every input range stays unwritten.
func (ss *ServeSession) jobKey(k *Kernel, spec JobSpec, wire []protocol.GraphKernelArg) serve.Key {
	h := serve.Resume(k.serveBaseKey())
	for _, a := range wire {
		h.U8(a.Kind)
		h.U64(a.Raw)
		h.I64(a.Local)
		h.I64(a.SubOrg)
		h.I64(a.SubLen)
	}
	h.I64(int64(spec.InputArg))
	h.I64(int64(spec.OutputArg))
	h.Bytes(spec.Input)
	h.I64(int64(spec.OutSize))
	h.Ints(spec.Offset)
	h.Ints(spec.Global)
	h.Ints(spec.Local)
	return h.Sum()
}

// bufferStamps snapshots each input buffer's range generation as a cache
// stamp: any later directory mutation over the range (a write, a loss, a
// fresh transfer) advances the generation and kills the cached entry.
func bufferStamps(bufs []*Buffer) []serve.Stamp {
	var stamps []serve.Stamp
	for _, buf := range bufs {
		b := buf
		gen := b.rangeGeneration()
		stamps = append(stamps, serve.FuncStamp(func() bool { return b.rangeGeneration() == gen }))
	}
	return stamps
}

// CacheStats snapshots the session's client-side result cache counters.
func (ss *ServeSession) CacheStats() serve.CacheStats { return ss.cache.Stats() }

// Close drops the lane: the daemon discards still-queued jobs, and every
// pending Future resolves with an error. Close is idempotent.
func (ss *ServeSession) Close() error {
	ss.failPending(cl.Errf(cl.InvalidOperation, "serve session closed"))
	ss.srv.dropServe(ss.id)
	return ss.srv.send(protocol.MsgServeClose, func(w *protocol.Writer) {
		protocol.PutServeClose(w, protocol.ServeClose{ServeID: ss.id})
	})
}

// connectionLost resolves every pending Future with ServerLost: serve
// lanes are connection-scoped and do not survive re-attach.
func (ss *ServeSession) connectionLost() {
	ss.failPending(cl.Errf(cl.ServerLost, "server %s connection lost", ss.srv.addr))
}

func (ss *ServeSession) failPending(err error) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	ss.closeErr = err
	pend := ss.pending
	ss.pending = map[uint64]*pendingServeJob{}
	ss.inflight = 0
	ss.mu.Unlock()
	for _, p := range pend {
		p.fut.Complete(serve.Result{}, err)
	}
}

// handleResults resolves a MsgServeResult notification's jobs. It runs
// on the connection's dispatch goroutine: outputs are copied out of the
// frame buffer before they escape, successful results feed the session
// cache, and each resolved job frees one in-flight admission slot.
func (ss *ServeSession) handleResults(results []protocol.ServeResult) {
	for _, res := range results {
		ss.mu.Lock()
		p := ss.pending[res.JobID]
		if p != nil {
			delete(ss.pending, res.JobID)
			if ss.inflight > 0 {
				ss.inflight--
			}
		}
		ss.mu.Unlock()
		if p == nil {
			continue
		}
		if res.Status != 0 {
			msg := res.Msg
			if msg == "" {
				msg = "serve job failed"
			}
			p.fut.Complete(serve.Result{}, cl.Errf(cl.ErrorCode(res.Status), "%s", msg))
			continue
		}
		out := append([]byte(nil), res.Output...)
		ss.cache.Put(p.key, out, p.stamps)
		p.fut.Complete(serve.Result{Output: out, BatchSize: int(res.BatchSize), Cached: res.Cached}, nil)
	}
}

// registerServe records an open serve session for result routing.
func (s *Server) registerServe(ss *ServeSession) {
	s.mu.Lock()
	if s.serves == nil {
		s.serves = map[uint64]*ServeSession{}
	}
	s.serves[ss.id] = ss
	s.mu.Unlock()
}

// dropServe forgets a serve session (client-initiated close).
func (s *Server) dropServe(id uint64) {
	s.mu.Lock()
	delete(s.serves, id)
	s.mu.Unlock()
}

// handleServeResult routes a result notification to its session; late
// results for closed or swept sessions are dropped.
func (s *Server) handleServeResult(c rpc.Call) {
	s.recvFrames.Add(1)
	res := protocol.GetServeResults(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	ss := s.serves[res.ServeID]
	s.mu.Unlock()
	if ss != nil {
		ss.handleResults(res.Results)
	}
}
