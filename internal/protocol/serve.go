package protocol

// Serve wire format (MsgServeOpen / MsgServeSubmit / MsgServeResult /
// MsgServeClose): the job-serving plane for many small concurrent
// requests against shared precompiled programs. A serve session is a
// lightweight lane inside an ordinary client session: the client opens it
// once (request/response, negotiating its fair-queue weight and pending
// cap), then submits jobs as one-way frames that ride the pipelined
// command path. The daemon coalesces compatible pending jobs into batched
// VM dispatches and ships each job's outcome back in a MsgServeResult
// notification — including per-job errors, so the serve plane never sends
// a MsgCompleted.
//
// Jobs deliberately carry their whole argument set: serve sessions share
// kernel objects across many in-flight jobs, so the kernel's mutable
// SetKernelArg state cannot be used. Mutable data flows through the
// inline Input payload and the returned Output slab; session buffers may
// appear as arguments only where the compiled kernel proves the argument
// read-only.

// Serve message types. The +100 block keeps them clear of the
// client↔daemon (+1), notification (+40), devmgr (+60) and peer (+80)
// blocks.
const (
	MsgServeOpen   MsgType = iota + 100 // request: open a serve session lane
	MsgServeClose                       // one-way: drop the lane, fail pending jobs
	MsgServeSubmit                      // one-way: submit a batch of jobs
	MsgServeResult                      // notification: per-job outcomes
	msgServeEnd
)

// ServeOpen is the body of a MsgServeOpen request. ServeID is a
// client-allocated stub ID like every other remote object. Weight is the
// session's share in the daemon's weighted fair queue (relative to other
// serve sessions' weights; 0 means 1). MaxPending caps the session's
// admitted-but-unfinished jobs — submits beyond it are refused with
// CL_BUSY_WWU instead of queueing unboundedly. UnitID is the device unit
// the lane's jobs run on; a managed daemon refuses a unit outside the
// session's lease with CL_INVALID_DEVICE.
type ServeOpen struct {
	ServeID    uint64
	Weight     uint32
	MaxPending uint32
	UnitID     uint32
}

// PutServeOpen encodes a serve-session open request.
func PutServeOpen(w *Writer, o ServeOpen) {
	w.U64(o.ServeID)
	w.U32(o.Weight)
	w.U32(o.MaxPending)
	w.U32(o.UnitID)
}

// GetServeOpen decodes a serve-session open request.
func GetServeOpen(r *Reader) ServeOpen {
	return ServeOpen{ServeID: r.U64(), Weight: r.U32(), MaxPending: r.U32(), UnitID: r.U32()}
}

// ServeClose is the body of a MsgServeClose one-way command.
type ServeClose struct {
	ServeID uint64
}

// PutServeClose encodes a serve-session close.
func PutServeClose(w *Writer, c ServeClose) { w.U64(c.ServeID) }

// GetServeClose decodes a serve-session close.
func GetServeClose(r *Reader) ServeClose { return ServeClose{ServeID: r.U64()} }

// ServeJob is one submitted job: which compiled kernel to run, the full
// frozen argument set, the job's inline input payload and the shape of
// the launch. InputArg/OutputArg name the kernel argument slots that
// receive the job-private input and output slabs (-1 when the kernel has
// none); the entries of Args at those indices are ignored. OutSize is the
// output slab's byte size, shipped back in the job's ServeResult.
type ServeJob struct {
	JobID     uint64
	KernelID  uint64
	Args      []GraphKernelArg
	InputArg  int32
	OutputArg int32
	Input     []byte
	OutSize   int64
	GOffset   []int
	Global    []int
	Local     []int
}

func putServeJob(w *Writer, j ServeJob) {
	w.U64(j.JobID)
	w.U64(j.KernelID)
	putKernelArgs(w, j.Args)
	w.I32(j.InputArg)
	w.I32(j.OutputArg)
	w.Blob(j.Input)
	w.I64(j.OutSize)
	w.Ints(j.GOffset)
	w.Ints(j.Global)
	w.Ints(j.Local)
}

func getServeJob(r *Reader) ServeJob {
	j := ServeJob{JobID: r.U64(), KernelID: r.U64()}
	j.Args = getKernelArgs(r)
	j.InputArg = r.I32()
	j.OutputArg = r.I32()
	j.Input = r.Blob()
	j.OutSize = r.I64()
	j.GOffset = r.Ints()
	j.Global = r.Ints()
	j.Local = r.Ints()
	return j
}

// ServeSubmit is the body of a MsgServeSubmit one-way command: a batch of
// jobs for one serve session. Clients usually ship one job per frame; the
// list form lets a client-side submit loop amortize framing when it has
// several jobs ready.
type ServeSubmit struct {
	ServeID uint64
	Jobs    []ServeJob
}

// PutServeSubmit encodes a job submission.
func PutServeSubmit(w *Writer, s ServeSubmit) {
	w.U64(s.ServeID)
	w.U32(uint32(len(s.Jobs)))
	for _, j := range s.Jobs {
		putServeJob(w, j)
	}
}

// GetServeSubmit decodes a job submission.
func GetServeSubmit(r *Reader) ServeSubmit {
	s := ServeSubmit{ServeID: r.U64()}
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return s
	}
	s.Jobs = make([]ServeJob, n)
	for i := range s.Jobs {
		s.Jobs[i] = getServeJob(r)
	}
	return s
}

// ServeResult is one job's outcome. Status is the cl error code (0 on
// success); Output is the job's output slab. BatchSize records how many
// jobs shared the VM dispatch that ran this one (1 when it ran alone, 0
// when it never dispatched), and Cached flags a daemon-cache hit — both
// feed client-side observability and the bench's coalescing assertions.
type ServeResult struct {
	JobID     uint64
	Status    int32
	Msg       string
	Output    []byte
	BatchSize uint32
	Cached    bool
}

func putServeResult(w *Writer, res ServeResult) {
	w.U64(res.JobID)
	w.I32(res.Status)
	w.String(res.Msg)
	w.Blob(res.Output)
	w.U32(res.BatchSize)
	w.Bool(res.Cached)
}

func getServeResult(r *Reader) ServeResult {
	return ServeResult{
		JobID:     r.U64(),
		Status:    r.I32(),
		Msg:       r.String(),
		Output:    r.Blob(),
		BatchSize: r.U32(),
		Cached:    r.Bool(),
	}
}

// ServeResults is the body of a MsgServeResult notification: the
// outcomes of one or more jobs of one serve session. The daemon batches
// the results of a coalesced dispatch into one frame, so N demultiplexed
// completions cost one notification instead of N.
type ServeResults struct {
	ServeID uint64
	Results []ServeResult
}

// PutServeResults encodes a result notification.
func PutServeResults(w *Writer, s ServeResults) {
	w.U64(s.ServeID)
	w.U32(uint32(len(s.Results)))
	for _, res := range s.Results {
		putServeResult(w, res)
	}
}

// GetServeResults decodes a result notification.
func GetServeResults(r *Reader) ServeResults {
	s := ServeResults{ServeID: r.U64()}
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return s
	}
	s.Results = make([]ServeResult, n)
	for i := range s.Results {
		s.Results[i] = getServeResult(r)
	}
	return s
}
