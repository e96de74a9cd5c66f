package daemon

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/rpc/rpctest"
	"dopencl/internal/simnet"
)

// The daemon's three receive tables — client session, manager link, peer
// link — held to the one rule for a frame a role does not serve or cannot
// decode, by the sweep of rpctest.

// writeStream is the stream the one-way EnqueueWrite sample announces.
const writeStream = 11

const fillSource = `kernel void fill(global int* p) { p[get_global_id(0)] = 7; }`

// sessionSamples names object 0 of every kind — the ID a truncated body
// decodes to — so a handler that acts before it checks is caught acting
// on a live object.
func sessionSamples() []rpctest.Sample {
	u64s := func(vs ...uint64) func(*protocol.Writer) {
		return func(w *protocol.Writer) {
			for _, v := range vs {
				w.U64(v)
			}
		}
	}
	enqueue := func(cmd protocol.GraphCommand) func(*protocol.Writer) {
		return func(w *protocol.Writer) {
			protocol.PutEnqueue(w, protocol.Enqueue{QueueID: 0, EventID: 50 + uint64(cmd.Op), WaitIDs: []uint64{0}, Cmd: cmd})
		}
	}
	// The one-way creates re-create an ID that exists, as re-attach recovery
	// does; the one-way releases, last in the list, find theirs gone.
	createContext := func(w *protocol.Writer) { w.U64(0); w.U64s([]uint64{0}) }
	createBuffer := func(w *protocol.Writer) {
		w.U64(0)
		w.U64(0)
		w.U32(uint32(cl.MemReadWrite))
		w.I64(csSize)
		w.U32(0)
	}
	createProgram := func(w *protocol.Writer) { w.U64(0); w.U64(0); w.String(fillSource) }
	build := func(w *protocol.Writer) { w.U64(0); w.String("") }
	createKernel := func(w *protocol.Writer) { w.U64(0); w.U64(0); w.String("fill") }
	setArg := func(w *protocol.Writer) {
		protocol.PutSetKernelArg(w, protocol.SetKernelArg{KernelID: 0, Index: 0,
			Arg: protocol.GraphKernelArg{Kind: protocol.ArgValBuffer, Raw: 0}})
	}
	eventStatus := func(w *protocol.Writer) { w.U64(0); w.I32(int32(cl.Complete)) }
	launch := protocol.GraphCommand{Op: protocol.GraphOpKernel, KernelID: 0, Global: []int{csSize / 4}}
	hello := func(w *protocol.Writer) { protocol.PutHello(w, protocol.Hello{Client: "sweep"}) }
	req, one := protocol.ClassRequest, protocol.ClassOneWay
	return []rpctest.Sample{
		{Type: protocol.MsgHello, Class: req, Setup: true, Fill: hello},
		{Type: protocol.MsgHello, Class: one, Fill: hello},
		{Type: protocol.MsgGetServerInfo, Class: req},
		{Type: protocol.MsgCreateContext, Class: one, Setup: true, Fill: createContext},
		{Type: protocol.MsgCreateQueue, Class: one, Setup: true, Fill: u64s(0, 0, 0)},
		{Type: protocol.MsgCreateBuffer, Class: one, Setup: true, Fill: createBuffer},
		{Type: protocol.MsgCreateProgram, Class: one, Setup: true, Fill: createProgram},
		{Type: protocol.MsgBuildProgram, Class: one, Setup: true, Fill: build},
		{Type: protocol.MsgCreateKernel, Class: one, Setup: true, Fill: createKernel},
		{Type: protocol.MsgSetKernelArg, Class: one, Setup: true, Fill: setArg},
		{Type: protocol.MsgCreateUserEvent, Class: req, Setup: true, Fill: u64s(0, 0)},
		{Type: protocol.MsgSetUserEventStatus, Class: one, Fill: eventStatus},
		{Type: protocol.MsgServeOpen, Class: req, Setup: true, Fill: func(w *protocol.Writer) {
			protocol.PutServeOpen(w, protocol.ServeOpen{ServeID: 0, Weight: 1, MaxPending: 8, UnitID: 1})
		}},
		{Type: protocol.MsgServeSubmit, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutServeSubmit(w, protocol.ServeSubmit{ServeID: 0, Jobs: []protocol.ServeJob{{
				JobID: 1, KernelID: 0, Args: []protocol.GraphKernelArg{{Kind: protocol.ArgValBuffer}},
				InputArg: -1, OutputArg: 0, OutSize: csSize, Global: []int{csSize / 4},
			}}})
		}},
		{Type: protocol.MsgEnqueueWrite, Class: req, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpWrite, Size: csSize, StreamID: 9})},
		{Type: protocol.MsgEnqueueWrite, Class: one, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpWrite, Size: csSize, StreamID: writeStream})},
		{Type: protocol.MsgEnqueueRead, Class: one, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpRead, Size: csSize, StreamID: 13})},
		{Type: protocol.MsgEnqueueCopy, Class: one, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpCopy, Size: 8, DstOff: 8})},
		{Type: protocol.MsgEnqueueKernel, Class: one, Fill: enqueue(launch)},
		{Type: protocol.MsgEnqueueMarker, Class: one, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpMarker})},
		{Type: protocol.MsgEnqueueBarrier, Class: one, Fill: enqueue(protocol.GraphCommand{Op: protocol.GraphOpBarrier})},
		{Type: protocol.MsgFlush, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgFinish, Class: req, Fill: u64s(0)},
		{Type: protocol.MsgForwardBuffer, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutForwardBuffer(w, protocol.ForwardBuffer{Size: csSize, PeerAddr: "peer", PeerKey: 9, Token: 7, EventID: 60, FailID: 62, WaitIDs: []uint64{0}})
		}},
		{Type: protocol.MsgAcceptForward, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{Token: 8, Size: csSize, EventID: 61})
		}},
		{Type: protocol.MsgRegisterGraph, Class: one, Fill: func(w *protocol.Writer) {
			frozen := launch
			frozen.Args = []protocol.GraphKernelArg{{Kind: protocol.ArgValBuffer}}
			protocol.PutRegisterGraph(w, protocol.RegisterGraph{GraphID: 0, QueueID: 0, Commands: []protocol.GraphCommand{
				frozen, {Op: protocol.GraphOpRead, Size: csSize}, {Op: protocol.GraphOpMarker},
			}})
		}},
		{Type: protocol.MsgExecGraph, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutExecGraph(w, protocol.ExecGraph{GraphID: 0, QueueID: 0, EventID: 62, ReadStreamIDs: []uint32{15},
				Updates: []protocol.GraphUpdate{{Cmd: 0, Kind: protocol.GraphUpdateKernelArg, Arg: protocol.GraphKernelArg{Kind: protocol.ArgValBuffer}}}})
		}},
		{Type: protocol.MsgReleaseGraph, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgServeClose, Class: one, Fill: func(w *protocol.Writer) { protocol.PutServeClose(w, protocol.ServeClose{ServeID: 0}) }},
		{Type: protocol.MsgReleaseEvent, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgReleaseKernel, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgReleaseProgram, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgReleaseBuffer, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgReleaseQueue, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgReleaseContext, Class: one, Fill: u64s(0)},
		{Type: protocol.MsgGoodbye, Class: one},
	}
}

// sessionLink starts a session on an in-process pair and has it serve the
// set-up samples, each in its class, so that it holds one object of every
// kind, each with ID 0. A set-up frame the session refuses fails the
// sweep: its notice is a frame the sweep did not expect.
func sessionLink(t *testing.T, d *Daemon, samples []rpctest.Sample) (*rpctest.Link, *session) {
	t.Helper()
	clientEP, serverEP := gcf.NewLocalPair()
	sess := newSession(d, serverEP)
	sess.start()
	l := rpctest.StartLink(clientEP)
	l.Conn = sess.conn
	for i, sm := range samples {
		switch {
		case !sm.Setup:
		case sm.Class != protocol.ClassRequest:
			l.Send(t, sm.Class, 0, sm.Type, sm.Body())
		default:
			if st := l.Ask(t, uint32(i+1), sm.Type, sm.Body()); st != cl.Success {
				t.Fatalf("set-up %s: %v", sm.Type, st)
			}
		}
	}
	l.State = func() string {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return fmt.Sprintf("contexts=%d queues=%d buffers=%d programs=%d kernels=%d events=%d graphs=%d serves=%d auth=%q",
			len(sess.contexts), len(sess.queues), len(sess.buffers), len(sess.programs), len(sess.kernels),
			len(sess.events), len(sess.graphs), len(sess.serves), sess.authID)
	}
	l.Alive = func(t *testing.T) {
		t.Helper()
		if st := l.Ask(t, 1, protocol.MsgGetServerInfo, nil); st != cl.Success {
			t.Fatalf("GetServerInfo after the sweep: %v", st)
		}
	}
	return l, sess
}

func TestSessionRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, (&session{}).routes(), sessionSamples())
}

// Served in list order on a fresh session, every sample is decoded: no
// request is refused as malformed and no one-way frame is dropped. (Some
// are refused for other reasons — there is no peer plane to forward on —
// which is none of this test's business.)
func TestSessionSamplesAreWellFormed(t *testing.T) {
	samples := sessionSamples()
	l, sess := sessionLink(t, testDaemon(t, false), nil)
	defer l.EP.Close()
	for i, sm := range samples {
		if sm.Class != protocol.ClassRequest {
			l.Send(t, sm.Class, 0, sm.Type, sm.Body())
			if sm.Type == protocol.MsgEnqueueWrite {
				// The queue is in order: without its payload the write, and the
				// Finish behind it, would wait for ever.
				sendPayload(t, l.EP.Stream(writeStream), make([]byte, csSize))
			}
		} else if st := l.Ask(t, uint32(i+1), sm.Type, sm.Body()); st == cl.InvalidValue {
			t.Errorf("request-class %s sample refused as malformed", sm.Type)
		}
	}
	l.Alive(t)
	if dropped := sess.conn.Unserved(); len(dropped) != 0 {
		t.Errorf("samples dropped as malformed: %v", dropped)
	}
}

func TestSessionRefusesWhatItDoesNotServe(t *testing.T) {
	samples := sessionSamples()
	l, sess := sessionLink(t, testDaemon(t, false), samples)
	defer l.EP.Close()
	rpctest.Sweep(t, l, sess.routes(), samples)
}

func managerLinkSamples() []rpctest.Sample {
	assign := func(w *protocol.Writer) { w.String("lease-a"); w.U64s([]uint64{1}) }
	revoke := func(w *protocol.Writer) { w.String("lease-a") }
	view := protocol.ShardMap{Epoch: 3, Shards: []string{"a", "b"}}.Put
	req, one := protocol.ClassRequest, protocol.ClassOneWay
	return []rpctest.Sample{
		{Type: protocol.MsgDMAssign, Class: req, Fill: assign},
		{Type: protocol.MsgDMRevoke, Class: one, Fill: revoke},
		{Type: protocol.MsgDMPing, Class: req, Fill: view, EmptyOK: true},
		{Type: protocol.MsgDMPing, Class: one, Fill: view, EmptyOK: true},
	}
}

// Every message is served in the one class its senders use: a request
// only where the sender uses the answer or needs the fence. Three types
// keep two classes, each for two senders: the first Hello asks and a
// kept link's tells, an EnqueueWrite request is refused after its payload
// is drained, and a health probe asks where an epoch push tells.
func TestRouteClasses(t *testing.T) {
	// classes lists, per type, the classes a table serves it in, and counts
	// the table's rows and request rows.
	classes := func(rt rpc.Routes) (byType map[protocol.MsgType][]uint8, rows, requests int) {
		byType = map[protocol.MsgType][]uint8{}
		for typ := range rt {
			for _, class := range []uint8{protocol.ClassRequest, protocol.ClassOneWay, protocol.ClassNotification} {
				if rt.Handler(protocol.MsgType(typ), class) != nil {
					byType[protocol.MsgType(typ)] = append(byType[protocol.MsgType(typ)], class)
					rows++
					if class == protocol.ClassRequest {
						requests++
					}
				}
			}
		}
		return byType, rows, requests
	}
	session, rows, requests := classes((&session{}).routes())
	if rows != 36 || requests != 6 {
		t.Errorf("the session serves %d rows, %d of them requests; want 36 and 6", rows, requests)
	}
	manager, rows, _ := classes(testDaemon(t, true).managerRoutes(nil, nil))
	if rows != 4 {
		t.Errorf("the manager link serves %d rows, want 4", rows)
	}
	req, one := protocol.ClassRequest, protocol.ClassOneWay
	if !slices.Equal(manager[protocol.MsgDMAssign], []uint8{req}) || !slices.Equal(manager[protocol.MsgDMRevoke], []uint8{one}) {
		t.Errorf("DMAssign in classes %v and DMRevoke in %v, want a request and a one-way", manager[protocol.MsgDMAssign], manager[protocol.MsgDMRevoke])
	}
	var twoClasses, requestOnly []protocol.MsgType
	for typ, cs := range session {
		if len(cs) == 2 {
			twoClasses = append(twoClasses, typ)
		} else if cs[0] == req {
			requestOnly = append(requestOnly, typ)
		}
	}
	for typ, cs := range manager {
		if len(cs) == 2 {
			twoClasses = append(twoClasses, typ)
		}
	}
	slices.Sort(twoClasses)
	slices.Sort(requestOnly)
	if want := []protocol.MsgType{protocol.MsgHello, protocol.MsgEnqueueWrite, protocol.MsgDMPing}; !slices.Equal(twoClasses, want) {
		t.Errorf("served in two classes: %v, want %v", twoClasses, want)
	}
	want := []protocol.MsgType{protocol.MsgGetServerInfo, protocol.MsgFinish, protocol.MsgCreateUserEvent, protocol.MsgServeOpen}
	if slices.Sort(want); !slices.Equal(requestOnly, want) {
		t.Errorf("the session serves as requests only %v, want %v", requestOnly, want)
	}
}

func TestManagerLinkRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, testDaemon(t, true).managerRoutes(nil, nil), managerLinkSamples())
}

// The daemon's manager link: a truncated DMAssign used to grant an empty
// lease to the authentication ID "", and a request of a type the link
// does not serve was dropped, leaving the manager's call waiting.
func TestManagerLinkRefusesWhatItDoesNotServe(t *testing.T) {
	d := testDaemon(t, true)
	a, b := simnet.Pipe(simnet.Unlimited())
	l := rpctest.StartLink(gcf.NewEndpoint(b, false))
	defer l.EP.Close()
	// The registration is the one request the daemon makes: acknowledge it.
	registered := make(chan *rpc.Conn, 1)
	go func() {
		c, err := d.attachManagerConn(a, "node", nil, nil, nil)
		if err != nil {
			t.Error(err)
		}
		registered <- c
	}()
	select {
	case env := <-l.Rest:
		w := protocol.NewWriter()
		w.I32(int32(cl.Success))
		if err := l.EP.Send(protocol.EncodeEnvelope(protocol.ClassResponse, env.ID, env.Type, w)); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the daemon never registered")
	}
	if l.Conn = <-registered; l.Conn == nil {
		t.FailNow()
	}
	l.State = func() string {
		d.mu.Lock()
		defer d.mu.Unlock()
		return fmt.Sprintf("leases=%d", len(d.leases))
	}
	l.Alive = func(t *testing.T) {
		t.Helper()
		if st := l.Ask(t, 1, protocol.MsgDMPing, nil); st != cl.Success {
			t.Fatalf("ping after the sweep: %v", st)
		}
	}
	rpctest.Sweep(t, l, d.managerRoutes(nil, nil), managerLinkSamples())
}

// peerSamples are the peer link's rows; the transfer names key.
func peerSamples(key uint64) []rpctest.Sample {
	return []rpctest.Sample{
		{Type: protocol.MsgPeerHello, Class: protocol.ClassOneWay, Fill: func(w *protocol.Writer) { w.String("node2"); w.String("node2/peer") }},
		{Type: protocol.MsgPeerTransfer, Class: protocol.ClassOneWay, Fill: func(w *protocol.Writer) {
			protocol.PutPeerTransfer(w, protocol.PeerTransfer{Key: key, Token: 21, BufID: 3, Size: 32, StreamID: 5})
		}},
	}
}

func TestPeerRowsHaveSamples(t *testing.T) {
	rpctest.CheckSamples(t, (&peerSession{}).routes(), peerSamples(0))
}

// The peer link answers nothing it serves, but a request that strays onto
// it is still refused rather than left waiting; and after the sweep a
// well-formed transfer header is parked for its accept as ever.
func TestPeerLinkRefusesWhatItDoesNotServe(t *testing.T) {
	d := testDaemon(t, false)
	gs := newGraphSession(t, d)
	defer gs.ep.Close()
	key := gs.hello(t)
	d.sessMu.Lock()
	sess := d.keys[key]
	d.sessMu.Unlock()
	samples := peerSamples(key)
	near, far := gcf.NewLocalPair()
	ps := &peerSession{d: d, ep: far}
	l := rpctest.StartLink(near)
	defer l.EP.Close()
	l.Conn = rpc.New(far)
	l.Conn.Start(ps.routes(), nil)
	held := func() int { return sess.table()[parked] }
	l.State = func() string { return fmt.Sprintf("parked=%d", held()) }
	l.Alive = func(t *testing.T) {
		t.Helper()
		l.Send(t, protocol.ClassOneWay, 0, protocol.MsgPeerTransfer, samples[1].Body())
		// A request is refused, and only after the transfer has been served.
		if st := l.Ask(t, 1, protocol.MsgGetServerInfo, nil); st != cl.InvalidOperation {
			t.Fatalf("request on the peer link answered %v", st)
		}
		if held() != 1 {
			t.Fatal("a well-formed transfer after the sweep was not parked")
		}
		sess.rv.mu.Lock()
		delete(sess.rv.entries, 21)
		sess.rv.parked = 0
		sess.rv.mu.Unlock()
	}
	rpctest.Sweep(t, l, ps.routes(), samples)
}
