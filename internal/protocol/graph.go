package protocol

// Command wire format. A queue command — write, read, copy, kernel
// launch, marker, barrier — has one encoding, GraphCommand, used wherever
// a command crosses the wire: an eager MsgEnqueue* frame carries one
// behind a routing header (Enqueue), a graph registration carries the
// recorded list (RegisterGraph), and a kernel argument value has one
// encoding, GraphKernelArg, shared by MsgSetKernelArg, registration
// snapshots, replay updates and serve jobs. All of these messages are
// one-way (ClassOneWay); failures come back in deferred MsgCompleted
// notices.

// Command opcodes, in the order of the MsgEnqueue* message types.
const (
	GraphOpWrite   = uint8(1) // host → buffer upload, payload on a stream
	GraphOpRead    = uint8(2) // buffer → host download, data shipped on a stream
	GraphOpCopy    = uint8(3) // buffer → buffer copy on the owning server
	GraphOpKernel  = uint8(4) // kernel launch
	GraphOpMarker  = uint8(5)
	GraphOpBarrier = uint8(6)
)

// Graph update kinds (mutable slots patched per replay).
const (
	GraphUpdateKernelArg = uint8(1) // re-bind one argument of a kernel command
	GraphUpdateWriteData = uint8(2) // replace a write command's cached payload
)

// GraphKernelArg is one kernel argument value: a raw scalar image, a
// buffer reference, a sub-buffer region view or a local-memory
// reservation.
type GraphKernelArg struct {
	Kind   uint8  // ArgValScalar / ArgValBuffer / ArgValSubBuffer / ArgValLocal
	Raw    uint64 // scalar bit image or (root) buffer ID
	Local  int64  // local-memory size (ArgValLocal)
	SubOrg int64  // view origin (ArgValSubBuffer)
	SubLen int64  // view size (ArgValSubBuffer)
}

// PutGraphKernelArg encodes an argument value.
func PutGraphKernelArg(w *Writer, a GraphKernelArg) {
	w.U8(a.Kind)
	switch a.Kind {
	case ArgValLocal:
		w.I64(a.Local)
	case ArgValSubBuffer:
		w.U64(a.Raw)
		w.I64(a.SubOrg)
		w.I64(a.SubLen)
	default:
		w.U64(a.Raw)
	}
}

// GetGraphKernelArg decodes an argument value.
func GetGraphKernelArg(r *Reader) GraphKernelArg {
	a := GraphKernelArg{Kind: r.U8()}
	switch a.Kind {
	case ArgValLocal:
		a.Local = r.I64()
	case ArgValSubBuffer:
		a.Raw = r.U64()
		a.SubOrg = r.I64()
		a.SubLen = r.I64()
	default:
		a.Raw = r.U64()
	}
	return a
}

// putKernelArgs encodes a full argument set (registration snapshots,
// serve jobs).
func putKernelArgs(w *Writer, args []GraphKernelArg) {
	w.U32(uint32(len(args)))
	for _, a := range args {
		PutGraphKernelArg(w, a)
	}
}

func getKernelArgs(r *Reader) []GraphKernelArg {
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	args := make([]GraphKernelArg, n)
	for i := range args {
		args[i] = GetGraphKernelArg(r)
	}
	return args
}

// SetKernelArg is the body of a MsgSetKernelArg command: bind one
// argument of the session kernel.
type SetKernelArg struct {
	KernelID uint64
	Index    uint32
	Arg      GraphKernelArg
}

// PutSetKernelArg encodes an argument binding.
func PutSetKernelArg(w *Writer, s SetKernelArg) {
	w.U64(s.KernelID)
	w.U32(s.Index)
	PutGraphKernelArg(w, s.Arg)
}

// GetSetKernelArg decodes an argument binding.
func GetSetKernelArg(r *Reader) SetKernelArg {
	return SetKernelArg{KernelID: r.U64(), Index: r.U32(), Arg: GetGraphKernelArg(r)}
}

// GraphCommand is one queue command.
type GraphCommand struct {
	Op uint8

	// Write/read target, or copy endpoints.
	BufID  uint64
	SrcID  uint64
	DstID  uint64
	Offset int64 // write/read offset, or copy source offset
	DstOff int64 // copy destination offset
	Size   int64

	// StreamID is the command's bulk-data stream: a write's payload
	// (eager, or the registration payload the daemon caches for replay)
	// or an eager read's return stream. Registered reads leave it zero —
	// each replay announces its own streams (ExecGraph.ReadStreamIDs).
	StreamID uint32

	// Kernel launch. Args is the frozen argument snapshot a registered
	// launch replays with; an eager launch carries none and runs with
	// the bindings MsgSetKernelArg made.
	KernelID uint64
	Args     []GraphKernelArg
	GOffset  []int // global work offset (empty = zero)
	Global   []int
	Local    []int
}

// PutGraphCommand encodes a command (without a launch's Args, which only
// a registration ships).
func PutGraphCommand(w *Writer, c GraphCommand) {
	w.U8(c.Op)
	switch c.Op {
	case GraphOpWrite, GraphOpRead:
		w.U64(c.BufID)
		w.I64(c.Offset)
		w.I64(c.Size)
		w.U32(c.StreamID)
	case GraphOpCopy:
		w.U64(c.SrcID)
		w.U64(c.DstID)
		w.I64(c.Offset)
		w.I64(c.DstOff)
		w.I64(c.Size)
	case GraphOpKernel:
		w.U64(c.KernelID)
		w.Ints(c.GOffset)
		w.Ints(c.Global)
		w.Ints(c.Local)
	}
}

// GetGraphCommand decodes a command; an unknown opcode is a decode error.
func GetGraphCommand(r *Reader) GraphCommand {
	c := GraphCommand{Op: r.U8()}
	switch c.Op {
	case GraphOpWrite, GraphOpRead:
		c.BufID = r.U64()
		c.Offset = r.I64()
		c.Size = r.I64()
		c.StreamID = r.U32()
	case GraphOpCopy:
		c.SrcID = r.U64()
		c.DstID = r.U64()
		c.Offset = r.I64()
		c.DstOff = r.I64()
		c.Size = r.I64()
	case GraphOpKernel:
		c.KernelID = r.U64()
		c.GOffset = r.Ints()
		c.Global = r.Ints()
		c.Local = r.Ints()
	case GraphOpMarker, GraphOpBarrier:
	default:
		r.err = ErrTruncated
	}
	return c
}

// Enqueue is the body of the six MsgEnqueue* one-way commands: the queue
// the command runs on, the client's event ID for it (0: no event, as for
// barriers) and its wait list, then the command itself. Cmd.Op selects
// the message type (MsgType).
type Enqueue struct {
	QueueID uint64
	EventID uint64
	WaitIDs []uint64
	Cmd     GraphCommand
}

// MsgType returns the MsgEnqueue* type that carries the command.
func (e Enqueue) MsgType() MsgType { return MsgEnqueueWrite + MsgType(e.Cmd.Op-GraphOpWrite) }

// PutEnqueue encodes an eager enqueue.
func PutEnqueue(w *Writer, e Enqueue) {
	w.U64(e.QueueID)
	w.U64(e.EventID)
	w.U64s(e.WaitIDs)
	PutGraphCommand(w, e.Cmd)
}

// GetEnqueue decodes an eager enqueue.
func GetEnqueue(r *Reader) Enqueue {
	return Enqueue{QueueID: r.U64(), EventID: r.U64(), WaitIDs: r.U64s(), Cmd: GetGraphCommand(r)}
}

// RegisterGraph is the body of a MsgRegisterGraph one-way command.
// QueueID routes deferred registration failures (the message has no
// event; a failed registration surfaces at the queue's next Finish, and
// every later MsgExecGraph of the unknown graph fails its own event).
type RegisterGraph struct {
	GraphID  uint64
	QueueID  uint64
	Commands []GraphCommand
}

// PutRegisterGraph encodes a graph registration: each command, a kernel
// launch followed by its argument snapshot.
func PutRegisterGraph(w *Writer, g RegisterGraph) {
	w.U64(g.GraphID)
	w.U64(g.QueueID)
	w.U32(uint32(len(g.Commands)))
	for _, c := range g.Commands {
		PutGraphCommand(w, c)
		if c.Op == GraphOpKernel {
			putKernelArgs(w, c.Args)
		}
	}
}

// GetRegisterGraph decodes a graph registration.
func GetRegisterGraph(r *Reader) RegisterGraph {
	g := RegisterGraph{GraphID: r.U64(), QueueID: r.U64()}
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return g
	}
	g.Commands = make([]GraphCommand, n)
	for i := range g.Commands {
		g.Commands[i] = GetGraphCommand(r)
		if g.Commands[i].Op == GraphOpKernel {
			g.Commands[i].Args = getKernelArgs(r)
		}
	}
	return g
}

// GraphUpdate patches one mutable slot of a cached graph before a
// replay. Updates are persistent: the daemon mutates its cached copy, so
// later replays without updates see the patched values.
type GraphUpdate struct {
	Cmd      uint32 // recorded command index
	Kind     uint8  // GraphUpdateKernelArg / GraphUpdateWriteData
	ArgIndex uint32 // kernel argument index (GraphUpdateKernelArg)
	Arg      GraphKernelArg
	StreamID uint32 // new payload stream (GraphUpdateWriteData)
	// Encoding says what the payload stream carries: the full payload
	// (GraphPayloadFull) or a delta against the daemon's cached payload
	// (GraphPayloadDelta).
	Encoding uint8
	// PayloadLen is the byte count on the payload stream: the command's
	// recorded size for full payloads, the encoded length for deltas.
	PayloadLen uint32
}

func putGraphUpdate(w *Writer, u GraphUpdate) {
	w.U32(u.Cmd)
	w.U8(u.Kind)
	switch u.Kind {
	case GraphUpdateKernelArg:
		w.U32(u.ArgIndex)
		PutGraphKernelArg(w, u.Arg)
	case GraphUpdateWriteData:
		w.U32(u.StreamID)
		w.U8(u.Encoding)
		w.U32(u.PayloadLen)
	}
}

func getGraphUpdate(r *Reader) GraphUpdate {
	u := GraphUpdate{Cmd: r.U32(), Kind: r.U8()}
	switch u.Kind {
	case GraphUpdateKernelArg:
		u.ArgIndex = r.U32()
		u.Arg = GetGraphKernelArg(r)
	case GraphUpdateWriteData:
		u.StreamID = r.U32()
		u.Encoding = r.U8()
		u.PayloadLen = r.U32()
	default:
		r.err = ErrTruncated
	}
	return u
}

// ExecGraph is the body of a MsgExecGraph one-way command: replay cached
// graph GraphID on its queue. EventID is the iteration's completion
// event (it fails on any replay error, including an unknown or released
// graph ID); ReadStreamIDs announces one client-opened stream per
// recorded read command, in command order, on which the daemon ships the
// read-back data of this iteration.
type ExecGraph struct {
	GraphID       uint64
	QueueID       uint64 // failure routing (echoed so unknown-graph errors still reach Finish)
	EventID       uint64
	WaitIDs       []uint64
	ReadStreamIDs []uint32
	Updates       []GraphUpdate
}

// PutExecGraph encodes a graph replay command.
func PutExecGraph(w *Writer, e ExecGraph) {
	w.U64(e.GraphID)
	w.U64(e.QueueID)
	w.U64(e.EventID)
	w.U64s(e.WaitIDs)
	w.U32(uint32(len(e.ReadStreamIDs)))
	for _, id := range e.ReadStreamIDs {
		w.U32(id)
	}
	w.U32(uint32(len(e.Updates)))
	for _, u := range e.Updates {
		putGraphUpdate(w, u)
	}
}

// GetExecGraph decodes a graph replay command.
func GetExecGraph(r *Reader) ExecGraph {
	e := ExecGraph{
		GraphID: r.U64(),
		QueueID: r.U64(),
		EventID: r.U64(),
		WaitIDs: r.U64s(),
	}
	n := int(r.U32())
	if n*4 > r.Remaining() {
		r.err = ErrTruncated
		return e
	}
	e.ReadStreamIDs = make([]uint32, n)
	for i := range e.ReadStreamIDs {
		e.ReadStreamIDs[i] = r.U32()
	}
	n = int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return e
	}
	e.Updates = make([]GraphUpdate, n)
	for i := range e.Updates {
		e.Updates[i] = getGraphUpdate(r)
	}
	return e
}
