package daemon

import (
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/serve"
	"dopencl/internal/vm"
)

// The daemon side of the serve plane (MsgServeOpen / MsgServeSubmit /
// MsgServeResult): many clients submit small jobs against shared
// precompiled programs, and the daemon coalesces compatible pending jobs
// into one batched VM dispatch — one pool spinup and one plan fetch for
// N tenants' work — then demultiplexes per-job results.
//
// Three mechanisms compose here:
//
//   - A daemon-wide weighted fair queue (serve.FairQueue) orders pending
//     jobs across every serve lane by virtual finish time, so one
//     tenant's flood cannot starve another, and refuses admission with
//     CL_BUSY_WWU once a lane's in-flight share is full.
//
//   - A short coalescing window (Config.ServeWindow): after the
//     dispatcher pops a batch leader it waits the window out, then
//     harvests every queued job running the same compiled kernel
//     (*kernel.Func) on the same device into the leader's dispatch (up to
//     Config.ServeMaxBatch). kernel.Shared gives equal source texts one
//     *kernel.Func per process, so jobs of different tenants still
//     coalesce; a queued job keeps its Func alive, so two live programs
//     never share the address the group is keyed by.
//
//   - A content-addressed result cache for buffer-free jobs: their key
//     covers the program source, kernel, frozen arguments, shape and the
//     full input payload, so a hit is exact by construction, needs no
//     invalidation, and is safe to share across sessions. A hit answers
//     at submit time with zero VM dispatches (BatchSize 0, Cached).
//     Jobs referencing session buffers are never cached here — the
//     client-side cache handles those with coherence stamps.
//
// Keys are computed daemon-side from wire-visible content only, under
// this process's own seeds (serve.Key); clients can neither name nor
// compute a cache slot.
//
// A lane runs on the device unit it was opened on, resolved through the
// session's lease like a queue's: on a managed daemon a tenant's jobs run
// only on the units it was leased.

// serveLane is one client serve session: a lane of the daemon-wide fair
// queue bound to a connection. Lanes are connection-scoped — they do not
// survive detach/re-attach (the client fails pending futures on
// disconnect and opens a fresh lane).
type serveLane struct {
	s       *session
	serveID uint64         // client stub ID, names the lane on this connection
	laneID  uint64         // daemon-wide fair-queue session key
	dev     *native.Device // the unit the lane's jobs run on
}

// serveGroup is a batch group of the fair queue: jobs coalesce only when
// they run the same compiled kernel on the same device.
type serveGroup struct {
	fn  *kernel.Func
	dev *native.Device
}

// serveJob is one admitted job: everything the dispatcher needs to run
// it inside a coalesced batch and route its result home. Its argument
// and shape slices point into the job's own arrays when they fit, so a
// job is one allocation besides its input copy and output slab.
type serveJob struct {
	lane      *serveLane
	jobID     uint64
	compiled  *kernel.Program
	fn        *kernel.Func
	args      []vm.Arg
	output    []byte // job-private output slab (nil when OutputArg < 0)
	goffset   []int
	global    []int
	local     []int
	key       serve.Key
	cacheable bool

	argBuf   [serveInlineArgs]vm.Arg
	shapeBuf [9]int // goffset, global and local of up to 3 dimensions each
}

// serveInlineArgs is how many kernel arguments a serveJob holds inline.
const serveInlineArgs = 6

// ServeStats snapshots the daemon's serve-plane counters.
type ServeStats struct {
	Submitted   int64 // jobs admitted to the fair queue
	Dispatches  int64 // batched VM dispatches issued
	BatchedJobs int64 // jobs carried by those dispatches
	CacheHits   int64 // jobs answered from the daemon result cache
	Cache       serve.CacheStats
}

// ServeStats reports the serve plane's counters (zero before the first
// serve session opens).
func (d *Daemon) ServeStats() ServeStats {
	return ServeStats{
		Submitted:   d.serveSubmitted.Load(),
		Dispatches:  d.serveDispatches.Load(),
		BatchedJobs: d.serveBatched.Load(),
		CacheHits:   d.serveCacheHits.Load(),
		Cache:       d.serveCache.Stats(),
	}
}

// handleServeOpen opens a serve lane on the requested device unit of this
// session and starts the daemon's dispatcher on first use. The unit is
// resolved through the session's lease, as for a queue: a managed daemon
// refuses a unit the session was not leased.
func (s *session) handleServeOpen(c rpc.Call) {
	o := protocol.GetServeOpen(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	authID := s.authID
	s.mu.Unlock()
	dev, ok := s.d.device(authID, uint64(o.UnitID)).(*native.Device)
	if !ok {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidDevice, "serve: device unit %d is not this session's", o.UnitID))
		return
	}
	lane := &serveLane{s: s, serveID: o.ServeID, laneID: s.d.serveLaneSeq.Add(1), dev: dev}
	s.d.serveQ.Open(lane.laneID, o.Weight, o.MaxPending)
	s.mu.Lock()
	old := s.serves[o.ServeID]
	s.serves[o.ServeID] = lane
	s.mu.Unlock()
	if old != nil {
		// Re-open under the same stub ID: retire the replaced lane.
		s.d.serveQ.CloseSession(old.laneID)
	}
	s.d.serveOnce.Do(func() { go s.d.serveDispatch() })
	c.Reply(cl.Success, nil)
}

// handleServeClose drops a lane. Still-queued jobs are discarded without
// result frames: the closing client has already failed its own pending
// futures (close is client-initiated), so answering them would race the
// teardown.
func (s *session) handleServeClose(c rpc.Call) {
	sc := protocol.GetServeClose(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	lane := s.serves[sc.ServeID]
	delete(s.serves, sc.ServeID)
	s.mu.Unlock()
	if lane != nil {
		s.d.serveQ.CloseSession(lane.laneID)
	}
}

// closeServeLanes tears down every lane of a detaching session: lanes
// are connection-scoped, and the fair queue must not keep dead sessions'
// jobs queued (the dispatcher would burn a batch on results nobody can
// receive).
func (s *session) closeServeLanes() {
	s.mu.Lock()
	lanes := s.serves
	s.serves = map[uint64]*serveLane{}
	s.mu.Unlock()
	for _, lane := range lanes {
		s.d.serveQ.CloseSession(lane.laneID)
	}
}

// handleServeSubmit admits a batch of jobs. Rejections (unknown kernel,
// malformed argument set, fair-queue Busy) and daemon-cache hits are
// answered immediately in one ServeResults frame; admitted jobs answer
// later from the dispatcher. The serve plane never sends a MsgCompleted
// — every outcome is a per-job status.
func (s *session) handleServeSubmit(c rpc.Call) {
	sub := protocol.GetServeSubmit(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	lane := s.serves[sub.ServeID]
	s.mu.Unlock()
	if lane == nil {
		s.d.logf("daemon %s: serve submit for unknown lane %d dropped", s.d.cfg.Name, sub.ServeID)
		return
	}
	var immediate []protocol.ServeResult
	for i := range sub.Jobs {
		pj := &sub.Jobs[i]
		job, err := s.buildServeJob(lane, pj)
		if err == nil && job.cacheable {
			if out, ok := s.d.serveCache.Get(job.key); ok {
				s.d.serveCacheHits.Add(1)
				immediate = append(immediate, protocol.ServeResult{
					JobID: pj.JobID, Output: out, Cached: true,
				})
				continue
			}
		}
		if err == nil {
			err = s.d.serveQ.Push(lane.laneID, serveCost(pj.Global), serveGroup{job.fn, lane.dev}, job)
		}
		if err != nil {
			immediate = append(immediate, protocol.ServeResult{
				JobID: pj.JobID, Status: int32(cl.CodeOf(err)), Msg: err.Error(),
			})
			continue
		}
		s.d.serveSubmitted.Add(1)
	}
	if len(immediate) > 0 {
		lane.sendResults(immediate)
	}
}

// serveCost prices a job for the fair queue by its work-item count.
func serveCost(global []int) float64 {
	cost := 1.0
	for _, g := range global {
		if g > 0 {
			cost *= float64(g)
		}
	}
	return cost
}

// buildServeJob resolves a wire job against the session's object tables
// and freezes it into a dispatchable serveJob. The inline input payload
// and the launch shape are copied (the wire Reader aliases the
// connection's frame buffer);
// session buffers are admitted only where the compiled kernel proves the
// argument read-only — the serve plane shares one native buffer across
// concurrently batched jobs, so a writable binding would race.
func (s *session) buildServeJob(lane *serveLane, pj *protocol.ServeJob) (*serveJob, error) {
	s.mu.Lock()
	k := s.kernels[pj.KernelID]
	progKey, haveProg := s.serveProg[pj.KernelID]
	s.mu.Unlock()
	nk, ok := k.(*native.Kernel)
	if !ok {
		return nil, cl.Errf(cl.InvalidKernel, "serve: unknown kernel %d", pj.KernelID)
	}
	fn := nk.Func()
	compiled := nk.Program().Compiled()
	if !haveProg {
		progKey = serveProgKey(nk.Program().Source(), fn.Name)
		s.mu.Lock()
		if s.serveProg == nil {
			s.serveProg = map[uint64]serve.Key{}
		}
		s.serveProg[pj.KernelID] = progKey
		s.mu.Unlock()
	}
	if len(pj.Args) != len(fn.Args) {
		return nil, cl.Errf(cl.InvalidKernelArgs, "serve: kernel %s takes %d arguments, job carries %d",
			fn.Name, len(fn.Args), len(pj.Args))
	}
	inIdx, outIdx := int(pj.InputArg), int(pj.OutputArg)
	if inIdx >= len(fn.Args) || outIdx >= len(fn.Args) || (inIdx >= 0 && inIdx == outIdx) {
		return nil, cl.Errf(cl.InvalidArgIndex, "serve: bad input/output slots %d/%d", inIdx, outIdx)
	}
	job := &serveJob{lane: lane, jobID: pj.JobID, compiled: compiled, fn: fn}
	if len(fn.Args) <= serveInlineArgs {
		job.args = job.argBuf[:len(fn.Args)]
	} else {
		job.args = make([]vm.Arg, len(fn.Args))
	}
	job.goffset = job.shape(0, pj.GOffset)
	job.global = job.shape(3, pj.Global)
	job.local = job.shape(6, pj.Local)
	hasBuffer := false
	for i := range fn.Args {
		info := fn.Args[i]
		switch {
		case i == inIdx:
			if info.Kind != kernel.ArgGlobalBuf {
				return nil, cl.Errf(cl.InvalidArgValue, "serve: input slot %d of %s is not a global buffer", i, fn.Name)
			}
			in := make([]byte, len(pj.Input))
			copy(in, pj.Input)
			job.args[i] = vm.GlobalArg(in)
		case i == outIdx:
			if info.Kind != kernel.ArgGlobalBuf {
				return nil, cl.Errf(cl.InvalidArgValue, "serve: output slot %d of %s is not a global buffer", i, fn.Name)
			}
			if pj.OutSize < 0 || pj.OutSize > 1<<30 {
				return nil, cl.Errf(cl.InvalidArgSize, "serve: bad output size %d", pj.OutSize)
			}
			job.output = make([]byte, int(pj.OutSize))
			job.args[i] = vm.GlobalArg(job.output)
		default:
			a := pj.Args[i]
			switch a.Kind {
			case protocol.ArgValScalar:
				if info.Kind != kernel.ArgScalarInt && info.Kind != kernel.ArgScalarFloat {
					return nil, cl.Errf(cl.InvalidArgValue, "serve: argument %d of %s is not scalar", i, fn.Name)
				}
				job.args[i] = vm.Arg{Kind: info.Kind, Scalar: a.Raw}
			case protocol.ArgValLocal:
				if info.Kind != kernel.ArgLocalBuf {
					return nil, cl.Errf(cl.InvalidArgValue, "serve: argument %d of %s is not local", i, fn.Name)
				}
				if a.Local <= 0 || a.Local > 1<<30 {
					return nil, cl.Errf(cl.InvalidArgSize, "serve: bad local size %d", a.Local)
				}
				job.args[i] = vm.LocalArg(int(a.Local))
			case protocol.ArgValBuffer, protocol.ArgValSubBuffer:
				data, err := s.serveBufferRange(fn, i, a)
				if err != nil {
					return nil, err
				}
				job.args[i] = vm.GlobalArg(data)
				hasBuffer = true
			default:
				return nil, cl.Errf(cl.InvalidValue, "serve: bad arg kind %d", a.Kind)
			}
		}
	}
	if !hasBuffer {
		job.cacheable = true
		job.key = serveKey(progKey, pj)
	}
	return job, nil
}

// shape copies one launch-shape vector into the job's shape array at off,
// or into its own slice when it has more than 3 dimensions (prepare
// refuses it at dispatch). An empty vector becomes nil, as it always did.
func (job *serveJob) shape(off int, v []int) []int {
	if len(v) == 0 {
		return nil
	}
	if len(v) > 3 {
		return append([]int(nil), v...)
	}
	return append(job.shapeBuf[off:off:off+3], v...)
}

// serveBufferRange resolves a session-buffer argument to the byte range
// it binds, enforcing the read-only contract.
func (s *session) serveBufferRange(fn *kernel.Func, i int, a protocol.GraphKernelArg) ([]byte, error) {
	info := fn.Args[i]
	if info.Kind != kernel.ArgGlobalBuf {
		return nil, cl.Errf(cl.InvalidArgValue, "serve: argument %d of %s is not a global buffer", i, fn.Name)
	}
	if !info.ReadOnly {
		return nil, cl.Errf(cl.InvalidArgValue,
			"serve: argument %d of %s is writable — session buffers may only bind read-only serve arguments", i, fn.Name)
	}
	s.mu.Lock()
	buf := s.buffers[a.Raw]
	s.mu.Unlock()
	nb, ok := buf.(*native.Buffer)
	if !ok {
		return nil, cl.Errf(cl.InvalidMemObject, "serve: unknown buffer %d", a.Raw)
	}
	data := nb.Bytes()
	if a.Kind == protocol.ArgValSubBuffer {
		org, n := int(a.SubOrg), int(a.SubLen)
		if org < 0 || n < 0 || org > len(data) || n > len(data)-org {
			return nil, cl.Errf(cl.InvalidBufferSize, "serve: view [%d,%d) outside buffer of %d bytes", org, org+n, len(data))
		}
		data = data[org : org+n]
	}
	return data, nil
}

// serveProgKey fingerprints a job's executable, the program source plus
// the kernel name: the memoized prefix of every cache key of the kernel.
// Batches are grouped by the compiled kernel itself (serveGroup), never
// by this hash.
func serveProgKey(src, fnName string) serve.Key {
	h := serve.NewHasher()
	h.String(src)
	h.String(fnName)
	return h.Sum()
}

// serveKey derives the daemon cache key from wire-visible content only:
// the program fingerprint (source + kernel name, memoized per session
// kernel), the frozen argument images, the input/output slot layout, the
// full input payload and the launch shape. Buffer-free jobs are pure
// functions of this tuple, so equality of keys implies equality of
// outputs.
func serveKey(prog serve.Key, pj *protocol.ServeJob) serve.Key {
	h := serve.Resume(prog)
	for _, a := range pj.Args {
		h.U8(a.Kind)
		h.U64(a.Raw)
		h.I64(a.Local)
	}
	h.I64(int64(pj.InputArg))
	h.I64(int64(pj.OutputArg))
	h.Bytes(pj.Input)
	h.I64(pj.OutSize)
	h.Ints(pj.GOffset)
	h.Ints(pj.Global)
	h.Ints(pj.Local)
	return h.Sum()
}

// sendResults ships one ServeResults notification for this lane.
func (lane *serveLane) sendResults(results []protocol.ServeResult) {
	err := lane.s.conn.Notify(protocol.MsgServeResult, func(w *protocol.Writer) {
		protocol.PutServeResults(w, protocol.ServeResults{ServeID: lane.serveID, Results: results})
	})
	if err != nil {
		lane.s.d.logf("daemon %s: serve result send failed: %v", lane.s.d.cfg.Name, err)
	}
}

// serveDispatch is the daemon's single coalescing dispatcher: pop a
// batch leader in fair order, wait out the coalescing window so
// concurrent submitters can pile on, harvest every compatible queued job
// (same compiled kernel on the same device — tenants and shapes may
// differ), and run them as one batched dispatch on that device. Under
// backlog the window is skipped: a full batch is already waiting, and
// sleeping would only throttle the drain rate.
func (d *Daemon) serveDispatch() {
	for {
		leader, _, ok := d.serveQ.Pop()
		if !ok {
			return
		}
		max := d.cfg.ServeMaxBatch
		if max <= 0 {
			max = 64
		}
		if w := d.cfg.ServeWindow; w > 0 && d.serveQ.Len() < max-1 {
			time.Sleep(w)
		}
		batch := append([]*serveJob{leader}, d.serveQ.HarvestGroup(serveGroup{leader.fn, leader.lane.dev}, max-1)...)
		d.runServeBatch(batch)
	}
}

// runServeBatch executes one coalesced batch on its lanes' device,
// inserts cacheable successes into the result cache, and ships each
// lane's results in one notification frame.
func (d *Daemon) runServeBatch(jobs []*serveJob) {
	b := vm.Batch{
		Prog:   jobs[0].compiled,
		Kernel: jobs[0].fn,
		Jobs:   make([]vm.BatchJob, len(jobs)),
	}
	for i, j := range jobs {
		b.Jobs[i] = vm.BatchJob{Args: j.args, GlobalSize: j.global, GlobalOffset: j.goffset, LocalSize: j.local}
	}
	errs, _ := jobs[0].lane.dev.Sim().ExecuteBatch(b)
	d.serveDispatches.Add(1)
	d.serveBatched.Add(int64(len(jobs)))
	perLane := map[*serveLane][]protocol.ServeResult{}
	for i, j := range jobs {
		res := protocol.ServeResult{JobID: j.jobID, BatchSize: uint32(len(jobs))}
		if err := errs[i]; err != nil {
			res.Status = int32(cl.CodeOf(err))
			res.Msg = err.Error()
		} else {
			res.Output = j.output
			if j.cacheable {
				d.serveCache.Put(j.key, j.output, nil)
			}
		}
		perLane[j.lane] = append(perLane[j.lane], res)
	}
	// The lane's share is given back before its client hears of the
	// results: a client that submits the moment it does must not be refused
	// for jobs that are done.
	for _, j := range jobs {
		d.serveQ.Finish(j.lane.laneID)
	}
	for lane, results := range perLane {
		lane.sendResults(results)
	}
}
