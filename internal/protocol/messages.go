package protocol

import "dopencl/internal/cl"

// MsgType enumerates protocol messages.
type MsgType uint16

// Client ↔ daemon message types. A connection's daemon session is bound
// to a lease by one handshake, MsgHello, which also resumes a parked
// session. Object IDs are allocated by the client driver (stub IDs,
// Section III-D of the paper); the daemon maps them to its native OpenCL
// objects. That is why the Create* and Release* messages, a build and an
// argument binding need no answer: they are one-way, ahead of the
// commands that name the object on the same ordered connection, and a
// client that must know they were served (re-attach recovery) follows
// them with one request.
const (
	// MsgHello binds the session to a lease (Hello): asked on a new
	// connection (HelloAnswer), one-way on a kept one behind the previous
	// lease's Goodbye.
	MsgHello MsgType = iota + 1
	MsgCreateContext
	MsgReleaseContext
	MsgCreateQueue
	MsgReleaseQueue
	MsgCreateBuffer
	MsgReleaseBuffer
	MsgCreateProgram
	MsgBuildProgram
	MsgReleaseProgram
	MsgCreateKernel
	MsgReleaseKernel
	MsgSetKernelArg
	MsgEnqueueWrite
	MsgEnqueueRead
	MsgEnqueueCopy
	MsgEnqueueKernel
	MsgEnqueueMarker
	MsgEnqueueBarrier
	MsgFinish
	MsgFlush
	MsgCreateUserEvent
	MsgSetUserEventStatus
	MsgReleaseEvent
	MsgGetServerInfo
	MsgForwardBuffer // client → source daemon: stream a buffer region to a peer
	MsgAcceptForward // client → target daemon: expect an inbound peer transfer
	MsgRegisterGraph // client → daemon: cache a finalized command graph
	MsgExecGraph     // client → daemon: replay a cached graph (one frame per iteration)
	MsgReleaseGraph  // client → daemon: drop a cached graph
	// MsgGoodbye is a one-way notice that ends the session's lease: the
	// daemon releases every object of the session at once, and a close
	// that follows has nothing to retain for re-attachment — only abnormal
	// termination pays the retention cost (parked device memory). The
	// connection may stay up: a client keeps it for its next lease on the
	// daemon, which a one-way MsgHello then binds to it.
	MsgGoodbye
	msgClientEnd // one past the last client ↔ daemon type
)

// Peer data-plane message types (daemon ↔ daemon). These travel on the
// dedicated peer connections of the server-to-server bulk plane, never on
// client sessions.
const (
	MsgPeerHello    MsgType = iota + 80 // handshake after an outbound peer dial
	MsgPeerTransfer                     // one bulk transfer: header + stream payload
	msgPeerEnd
)

// Notifications (daemon → client).
const (
	MsgCompleted MsgType = iota + 40 // the one completion notice (Completion)
	msgNotifyEnd
)

// Device manager message types.
const (
	MsgDMRegisterServer MsgType = iota + 60 // daemon → manager
	MsgDMRequestDevices                     // client → manager; the grant lists each server's leased device records
	MsgDMAssign                             // manager → daemon
	MsgDMReleaseLease                       // client/daemon → manager, one-way
	MsgDMRevoke                             // manager → daemon, one-way (lease teardown)
	// MsgDMPing is the manager → daemon health probe. In a sharded
	// control plane its body (and one-way copies pushed to clients and
	// daemons) carries the sender's shard-map epoch and membership, so
	// every probe doubles as a shard-map refresh: receivers compare the
	// carried epoch against their cached map and re-fetch/re-partition on
	// a bump. An empty body is a plain liveness probe.
	MsgDMPing
	// MsgDMShardMap asks a devmgr shard for the current shard map (epoch
	// + live shard addresses). Clients fetch it at connect to route
	// placement requests; daemons fetch it to compute which shard owns
	// each of their devices.
	MsgDMShardMap
	// MsgDMGossip is the shard ↔ shard health/membership exchange, built
	// on the same request/pending/timeout plumbing as MsgDMPing: the
	// request carries the sender's view, the response the receiver's, and
	// both sides adopt the higher epoch.
	MsgDMGossip
	msgDMEnd
)

// msgNames is indexed by MsgType; a type without an entry prints as
// "MsgType(?)". TestMsgTypeNames walks every declared range, so a
// constant added without a name here fails the build's tests.
var msgNames = [...]string{
	MsgHello: "Hello", MsgCreateContext: "CreateContext",
	MsgReleaseContext: "ReleaseContext", MsgCreateQueue: "CreateQueue",
	MsgReleaseQueue: "ReleaseQueue", MsgCreateBuffer: "CreateBuffer",
	MsgReleaseBuffer: "ReleaseBuffer", MsgCreateProgram: "CreateProgram",
	MsgBuildProgram: "BuildProgram", MsgReleaseProgram: "ReleaseProgram",
	MsgCreateKernel: "CreateKernel", MsgReleaseKernel: "ReleaseKernel",
	MsgSetKernelArg: "SetKernelArg", MsgEnqueueWrite: "EnqueueWrite",
	MsgEnqueueRead: "EnqueueRead", MsgEnqueueCopy: "EnqueueCopy",
	MsgEnqueueKernel: "EnqueueKernel", MsgEnqueueMarker: "EnqueueMarker",
	MsgEnqueueBarrier: "EnqueueBarrier", MsgFinish: "Finish",
	MsgFlush: "Flush", MsgCreateUserEvent: "CreateUserEvent",
	MsgSetUserEventStatus: "SetUserEventStatus", MsgReleaseEvent: "ReleaseEvent",
	MsgGetServerInfo: "GetServerInfo", MsgCompleted: "Completed",
	MsgForwardBuffer: "ForwardBuffer", MsgAcceptForward: "AcceptForward",
	MsgRegisterGraph: "RegisterGraph", MsgExecGraph: "ExecGraph",
	MsgReleaseGraph: "ReleaseGraph", MsgGoodbye: "Goodbye",
	MsgPeerHello: "PeerHello", MsgPeerTransfer: "PeerTransfer",
	MsgDMRegisterServer: "DMRegisterServer", MsgDMRequestDevices: "DMRequestDevices",
	MsgDMAssign: "DMAssign", MsgDMReleaseLease: "DMReleaseLease",
	MsgDMRevoke: "DMRevoke", MsgDMPing: "DMPing",
	MsgDMShardMap: "DMShardMap", MsgDMGossip: "DMGossip",
	MsgServeOpen: "ServeOpen", MsgServeClose: "ServeClose",
	MsgServeSubmit: "ServeSubmit", MsgServeResult: "ServeResult",
}

// String returns the message type name for logs and errors.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return "MsgType(?)"
}

// PutDeviceInfo encodes a cl.DeviceInfo.
func PutDeviceInfo(w *Writer, d cl.DeviceInfo) {
	w.String(d.Name)
	w.String(d.Vendor)
	w.U32(uint32(d.Type))
	w.U32(uint32(d.ComputeUnits))
	w.U32(uint32(d.ClockMHz))
	w.I64(d.GlobalMemSize)
	w.I64(d.LocalMemSize)
	w.U32(uint32(d.MaxWorkGroupSize))
	w.I64(d.MaxAllocSize)
	w.String(d.Version)
	w.Strings(d.Extensions)
}

// GetDeviceInfo decodes a cl.DeviceInfo.
func GetDeviceInfo(r *Reader) cl.DeviceInfo {
	return cl.DeviceInfo{
		Name:             r.String(),
		Vendor:           r.String(),
		Type:             cl.DeviceType(r.U32()),
		ComputeUnits:     int(r.U32()),
		ClockMHz:         int(r.U32()),
		GlobalMemSize:    r.I64(),
		LocalMemSize:     r.I64(),
		MaxWorkGroupSize: int(r.U32()),
		MaxAllocSize:     r.I64(),
		Version:          r.String(),
		Extensions:       r.Strings(),
	}
}

// DeviceRecord pairs a daemon-local device index with its description.
type DeviceRecord struct {
	UnitID uint32
	Info   cl.DeviceInfo
}

// PutDeviceRecords encodes a device list.
func PutDeviceRecords(w *Writer, recs []DeviceRecord) {
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		w.U32(rec.UnitID)
		PutDeviceInfo(w, rec.Info)
	}
}

// GetDeviceRecords decodes a device list.
func GetDeviceRecords(r *Reader) []DeviceRecord {
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	out := make([]DeviceRecord, n)
	for i := range out {
		out[i].UnitID = r.U32()
		out[i].Info = GetDeviceInfo(r)
	}
	return out
}

// Hello is the body of MsgHello. Client names the client in the daemon's
// logs and AuthID the lease ("" for a direct connection). Resume is the
// session a client re-attaching after a lost connection resumes (0: a
// new session): the ID its previous answer carried. The daemon adopts
// that session's objects if it still parks it for the same lease, and
// refuses the Hello if it parks it for another, or if the connection's
// own session holds objects or is the one named.
type Hello struct {
	Client string
	AuthID string
	Resume uint64
}

// PutHello encodes a Hello.
func PutHello(w *Writer, h Hello) {
	w.String(h.Client)
	w.String(h.AuthID)
	w.U64(h.Resume)
}

// GetHello decodes a Hello.
func GetHello(r *Reader) Hello {
	return Hello{Client: r.String(), AuthID: r.String(), Resume: r.U64()}
}

// HelloAnswer is the answer to a request-class Hello. Retained reports
// that the session the Hello resumed was adopted, its objects and their
// data intact; Devices are the lease's device records. PeerAddr is where
// peers reach the daemon's bulk plane (empty: it receives no forwards)
// and CanForward whether it originates forwards. SessionID is what a
// later Hello resumes, and PeerKey names this connection to the daemons
// forwarding to it (PeerTransfer.Key).
type HelloAnswer struct {
	Name       string
	Retained   bool
	Devices    []DeviceRecord
	PeerAddr   string
	CanForward bool
	SessionID  uint64
	PeerKey    uint64
}

// PutHelloAnswer encodes a Hello's answer.
func PutHelloAnswer(w *Writer, a HelloAnswer) {
	w.String(a.Name)
	w.Bool(a.Retained)
	PutDeviceRecords(w, a.Devices)
	w.String(a.PeerAddr)
	w.Bool(a.CanForward)
	w.U64(a.SessionID)
	w.U64(a.PeerKey)
}

// GetHelloAnswer decodes a Hello's answer.
func GetHelloAnswer(r *Reader) HelloAnswer {
	return HelloAnswer{Name: r.String(), Retained: r.Bool(), Devices: GetDeviceRecords(r),
		PeerAddr: r.String(), CanForward: r.Bool(), SessionID: r.U64(), PeerKey: r.U64()}
}

// Completion is the body of MsgCompleted, the daemon's one notice that
// something the client sent has completed: the command behind event
// EventID (0: none) ended with Status, cl.Complete or an OpenCL error
// code. A failure also says where it surfaces and what failed: QueueID is
// the queue whose next Finish reports it (0: none), Op the message that
// failed and Msg the daemon's text. A failure naming neither a queue nor
// an event is an object-plane message's (a create, a build, a binding,
// a release), which the client reports at its next wait on the daemon.
// A success is the first two fields, 12 bytes.
type Completion struct {
	EventID uint64
	Status  int32
	QueueID uint64
	Op      MsgType
	Msg     string
}

// PutCompletion encodes a completion notice.
func PutCompletion(w *Writer, c Completion) {
	w.U64(c.EventID)
	w.I32(c.Status)
	if c.Status < 0 {
		w.U64(c.QueueID)
		w.U16(uint16(c.Op))
		w.String(c.Msg)
	}
}

// GetCompletion decodes a completion notice.
func GetCompletion(r *Reader) Completion {
	c := Completion{EventID: r.U64(), Status: r.I32()}
	if c.Status < 0 {
		c.QueueID, c.Op, c.Msg = r.U64(), MsgType(r.U16()), r.String()
	}
	return c
}

// ForwardBuffer is the body of a MsgForwardBuffer one-way command: the
// client tells the source daemon to read [SrcOffset, SrcOffset+Size) of
// SrcBufID and stream the bytes directly to the daemon at PeerAddr,
// bypassing the client's link entirely (the peer-to-peer bulk plane that
// lifts the Section III-F all-through-the-host limitation). PeerKey names
// the client's connection at the receiver (HelloAnswer.PeerKey) and Token
// the MsgAcceptForward registered on it; DstBufID/DstOffset are echoed in
// the peer transfer header so the receiver can cross-check the client's
// intent against the peer's claim.
// EventID is the staging read's event: it completes once the bytes are
// copied out of the buffer. FailID is the event the source fails when the
// payload will not be sent (read, dial or send failure); QueueID
// sequences the buffer read and routes deferred failures.
type ForwardBuffer struct {
	QueueID   uint64
	SrcBufID  uint64
	SrcOffset int64
	Size      int64
	PeerAddr  string
	PeerKey   uint64
	Token     uint64
	DstBufID  uint64
	DstOffset int64
	EventID   uint64
	FailID    uint64
	WaitIDs   []uint64
}

// PutForwardBuffer encodes a forward command.
func PutForwardBuffer(w *Writer, f ForwardBuffer) {
	w.U64(f.QueueID)
	w.U64(f.SrcBufID)
	w.I64(f.SrcOffset)
	w.I64(f.Size)
	w.String(f.PeerAddr)
	w.U64(f.PeerKey)
	w.U64(f.Token)
	w.U64(f.DstBufID)
	w.I64(f.DstOffset)
	w.U64(f.EventID)
	w.U64(f.FailID)
	w.U64s(f.WaitIDs)
}

// GetForwardBuffer decodes a forward command.
func GetForwardBuffer(r *Reader) ForwardBuffer {
	return ForwardBuffer{
		QueueID:   r.U64(),
		SrcBufID:  r.U64(),
		SrcOffset: r.I64(),
		Size:      r.I64(),
		PeerAddr:  r.String(),
		PeerKey:   r.U64(),
		Token:     r.U64(),
		DstBufID:  r.U64(),
		DstOffset: r.I64(),
		EventID:   r.U64(),
		FailID:    r.U64(),
		WaitIDs:   r.U64s(),
	}
}

// AcceptForward is the body of a MsgAcceptForward one-way command: the
// client tells the target daemon to expect an inbound peer transfer
// identified by Token, write it into [Offset, Offset+Size) of BufID and
// complete the gating user event EventID when the payload has landed.
// Commands that depend on the forwarded data wait on EventID.
type AcceptForward struct {
	Token   uint64
	BufID   uint64
	Offset  int64
	Size    int64
	EventID uint64
	QueueID uint64 // failure routing only; 0 when the transfer has no queue
}

// PutAcceptForward encodes an accept command.
func PutAcceptForward(w *Writer, a AcceptForward) {
	w.U64(a.Token)
	w.U64(a.BufID)
	w.I64(a.Offset)
	w.I64(a.Size)
	w.U64(a.EventID)
	w.U64(a.QueueID)
}

// GetAcceptForward decodes an accept command.
func GetAcceptForward(r *Reader) AcceptForward {
	return AcceptForward{
		Token:   r.U64(),
		BufID:   r.U64(),
		Offset:  r.I64(),
		Size:    r.I64(),
		EventID: r.U64(),
		QueueID: r.U64(),
	}
}

// PeerTransfer is the header of one daemon-to-daemon bulk transfer (the
// peer-handshake frame identifying the receiving transfer and buffer):
// sent on the peer connection ahead of the payload, which follows on
// stream StreamID. Key names the client connection whose accept the
// payload meets, Token the accept; every other field is cross-checked
// against that accept before any byte is written.
type PeerTransfer struct {
	Key      uint64
	Token    uint64
	BufID    uint64
	Offset   int64
	Size     int64
	StreamID uint32
}

// PutPeerTransfer encodes a peer transfer header.
func PutPeerTransfer(w *Writer, t PeerTransfer) {
	w.U64(t.Key)
	w.U64(t.Token)
	w.U64(t.BufID)
	w.I64(t.Offset)
	w.I64(t.Size)
	w.U32(t.StreamID)
}

// GetPeerTransfer decodes a peer transfer header.
func GetPeerTransfer(r *Reader) PeerTransfer {
	return PeerTransfer{
		Key:      r.U64(),
		Token:    r.U64(),
		BufID:    r.U64(),
		Offset:   r.I64(),
		Size:     r.I64(),
		StreamID: r.U32(),
	}
}

// ArgValueKind tags SetKernelArg payloads.
const (
	ArgValScalar = uint8(0)
	ArgValBuffer = uint8(1)
	ArgValLocal  = uint8(2)
	// ArgValSubBuffer binds a region view of a buffer: the wire carries
	// the root buffer's ID plus the view's origin and size, and the daemon
	// materializes a native sub-buffer aliasing that range. Sub-buffers
	// never exist as standalone remote objects — the root ID plus range is
	// their entire identity, which keeps creating one free of round trips
	// (the data-parallel scheduler creates one per chunk).
	ArgValSubBuffer = uint8(3)
)

// DeviceRequest is one entry of a device-manager assignment request
// (Section IV-B): how many devices of which type with which minimum
// properties.
type DeviceRequest struct {
	Count           int
	Type            cl.DeviceType
	MinComputeUnits int
	MinGlobalMem    int64
	Vendor          string // substring match; empty matches all
	Name            string // substring match; empty matches all
}

// Put encodes the request entry.
func (d DeviceRequest) Put(w *Writer) {
	w.U32(uint32(d.Count))
	w.U32(uint32(d.Type))
	w.U32(uint32(d.MinComputeUnits))
	w.I64(d.MinGlobalMem)
	w.String(d.Vendor)
	w.String(d.Name)
}

// GetDeviceRequest decodes one request entry.
func GetDeviceRequest(r *Reader) DeviceRequest {
	return DeviceRequest{
		Count:           int(r.U32()),
		Type:            cl.DeviceType(r.U32()),
		MinComputeUnits: int(r.U32()),
		MinGlobalMem:    r.I64(),
		Vendor:          r.String(),
		Name:            r.String(),
	}
}

// PlaceRequest is the body of a MsgDMRequestDevices placement request.
// Tenant identifies the requesting application for weighted fair queueing
// and per-tenant admission quotas on the manager; Weight biases the
// tenant's share of the grant queue (0 means 1).
type PlaceRequest struct {
	Tenant   string
	Weight   uint32
	Requests []DeviceRequest
}

// Put encodes the placement request.
func (p PlaceRequest) Put(w *Writer) {
	w.String(p.Tenant)
	w.U32(p.Weight)
	w.U32(uint32(len(p.Requests)))
	for _, req := range p.Requests {
		req.Put(w)
	}
}

// GetPlaceRequest decodes a placement request.
func GetPlaceRequest(r *Reader) PlaceRequest {
	p := PlaceRequest{Tenant: r.String(), Weight: r.U32()}
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return p
	}
	for i := 0; i < n; i++ {
		p.Requests = append(p.Requests, GetDeviceRequest(r))
	}
	return p
}

// ShardMap is the devmgr control plane's membership view: the set of live
// shard addresses and a monotonically increasing epoch that bumps on
// every membership change. Clients and daemons cache it and refresh when
// a MsgDMPing (or gossip response) carries a higher epoch.
type ShardMap struct {
	Epoch  uint64
	Shards []string
}

// Put encodes a shard map.
func (s ShardMap) Put(w *Writer) {
	w.U64(s.Epoch)
	w.Strings(s.Shards)
}

// GetShardMap decodes a shard map.
func GetShardMap(r *Reader) ShardMap {
	return ShardMap{Epoch: r.U64(), Shards: r.Strings()}
}

// Gossip is the body of a MsgDMGossip exchange: the sender's identity and
// membership view. The response carries the receiver's view in the same
// shape (prefixed by a status code).
type Gossip struct {
	From string
	View ShardMap
}

// Put encodes a gossip frame.
func (g Gossip) Put(w *Writer) {
	w.String(g.From)
	g.View.Put(w)
}

// GetGossip decodes a gossip frame.
func GetGossip(r *Reader) Gossip {
	return Gossip{From: r.String(), View: GetShardMap(r)}
}
