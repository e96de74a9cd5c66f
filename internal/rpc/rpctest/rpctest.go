// Package rpctest is test support for the roles' receive tables
// (rpc.Routes): everything a role's tests assert about its table is derived
// from the table, not listed by hand. A role keeps one Sample body per row,
// CheckSamples fails when a row has none, and Sweep holds a live role to
// the one rule for a frame it does not serve or cannot decode
// (rpc.Call.Refuse).
package rpctest

import (
	"fmt"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Sample is one well-formed body for one row of a table.
type Sample struct {
	Type  protocol.MsgType
	Class uint8
	Fill  func(*protocol.Writer)
	// EmptyOK: the empty body is a message of its own (a ping without a
	// view), not a truncation of this one.
	EmptyOK bool
	// Setup: the role must have served this sample, in list order, before
	// it holds the objects the other samples name.
	Setup bool
}

// Body encodes the sample.
func (sm Sample) Body() []byte {
	w := protocol.NewWriter()
	if sm.Fill != nil {
		sm.Fill(w)
	}
	return w.Bytes()
}

// classes are the frame classes a receiver can be sent, and one that does
// not exist.
var classes = []uint8{protocol.ClassRequest, protocol.ClassNotification, protocol.ClassOneWay, 9}

// CheckSamples fails unless samples and table rows pair off exactly.
func CheckSamples(t *testing.T, rt rpc.Routes, samples []Sample) {
	t.Helper()
	have := map[string]bool{}
	for _, sm := range samples {
		key := fmt.Sprintf("%s/%d", sm.Type, sm.Class)
		if have[key] {
			t.Errorf("two samples for %s in class %d", sm.Type, sm.Class)
		}
		have[key] = true
		if rt.Handler(sm.Type, sm.Class) == nil {
			t.Errorf("sample for %s in class %d, which the table does not serve", sm.Type, sm.Class)
		}
	}
	for typ := range rt {
		for _, class := range classes {
			if rt.Handler(protocol.MsgType(typ), class) != nil && !have[fmt.Sprintf("%s/%d", protocol.MsgType(typ), class)] {
				t.Errorf("the table serves %s in class %d and no sample covers it", protocol.MsgType(typ), class)
			}
		}
	}
}

// Link is the far end of a connection to a role under test, framed by
// hand, plus what the test may look at on the role's side of it.
type Link struct {
	EP   *gcf.Endpoint
	Resp chan protocol.Envelope // responses
	Rest chan protocol.Envelope // whatever else the role sent
	Conn *rpc.Conn              // the role's end
	// State prints what the frames of a sweep must leave as it was.
	State func() string
	// Alive proves the role still serves a well-formed message.
	Alive func(t *testing.T)
}

// StartLink starts ep as the test's end of a link.
func StartLink(ep *gcf.Endpoint) *Link {
	// Rest holds a sweep's worth of whatever a wrong answer would send: the
	// test looks only after the sweep.
	l := &Link{EP: ep, Resp: make(chan protocol.Envelope, 16), Rest: make(chan protocol.Envelope, 1<<14)}
	ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			return
		}
		if env.Class == protocol.ClassResponse {
			// ID 0 marks a request whose answer the test does not wait for.
			if env.ID != 0 {
				l.Resp <- env
			}
			return
		}
		select {
		case l.Rest <- env:
		default:
		}
	}, nil)
	return l
}

// Send frames body as it is — well formed or not — and sends it.
func (l *Link) Send(t *testing.T, class uint8, id uint32, typ protocol.MsgType, body []byte) {
	t.Helper()
	// A frame is its header and then the body, whatever the body is.
	if err := l.EP.Send(append(protocol.EncodeEnvelope(class, id, typ, protocol.NewWriter()), body...)); err != nil {
		t.Fatal(err)
	}
}

// Ask sends a request and returns the status of its response.
func (l *Link) Ask(t *testing.T, id uint32, typ protocol.MsgType, body []byte) cl.ErrorCode {
	t.Helper()
	l.Send(t, protocol.ClassRequest, id, typ, body)
	select {
	case env := <-l.Resp:
		if env.ID != id || env.Type != typ {
			t.Fatalf("response %s/%d to request %s/%d", env.Type, env.ID, typ, id)
		}
		return cl.ErrorCode(env.Body.I32())
	case <-time.After(5 * time.Second):
		t.Fatalf("request-class %s (%d body bytes) was never answered", typ, len(body))
		return 0
	}
}

// Sweep sends every strict prefix of every sample, and an empty frame for
// every (type, class) pair the table does not serve, and requires the
// uniform answer: a request is refused with InvalidValue resp.
// InvalidOperation, anything else is dropped and counted and nothing
// comes back; the role's state is untouched and it still serves.
func Sweep(t *testing.T, l *Link, rt rpc.Routes, samples []Sample) {
	t.Helper()
	before := l.State()
	id, dropped := uint32(1000), uint64(0)
	frame := func(class uint8, typ protocol.MsgType, body []byte, want cl.ErrorCode) {
		t.Helper()
		if class != protocol.ClassRequest {
			l.Send(t, class, 0, typ, body)
			dropped++
			return
		}
		id++
		if got := l.Ask(t, id, typ, body); got != want {
			t.Errorf("request-class %s with %d body bytes answered %v, want %v", typ, len(body), got, want)
		}
	}
	for _, sm := range samples {
		body := sm.Body()
		for n := range body {
			if n > 0 || !sm.EmptyOK {
				frame(sm.Class, sm.Type, body[:n], cl.InvalidValue)
			}
		}
	}
	for typ := protocol.MsgType(0); int(typ) < len(rt)+8; typ++ {
		for _, class := range classes {
			if rt.Handler(typ, class) == nil {
				frame(class, typ, nil, cl.InvalidOperation)
			}
		}
	}
	// Frames are handled in order: once a request no table serves has been
	// refused, every frame before it has been handled.
	frame(protocol.ClassRequest, 0xffff, nil, cl.InvalidOperation)
	t.Logf("%d requests refused, %d other frames sent", id-1000, dropped)
	var counted uint64
	for _, n := range l.Conn.Unserved() {
		counted += n
	}
	if counted != dropped {
		t.Errorf("%d frames were sent that nobody answers, %d were counted as dropped", dropped, counted)
	}
	select {
	case env := <-l.Rest:
		t.Errorf("a refused frame made the role send %s in class %d", env.Type, env.Class)
	default:
	}
	if after := l.State(); after != before {
		t.Errorf("refused frames changed the role's state:\n before %s\n after  %s", before, after)
	}
	l.Alive(t)
}
