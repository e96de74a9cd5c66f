// Package rpc is the one connection of the dOpenCL communication framework
// (Section III-B of the paper), both halves of it: every exchange between
// client and daemon, manager and daemon, manager shard and manager shard,
// and client or daemon and manager rides a Conn. A Conn owns the protocol
// envelope over a gcf endpoint's message channel. Sending: request IDs,
// the window of calls awaiting a response, reply framing. Receiving: a
// role declares what it serves as a table (Routes) of handlers by message
// type and class, Start dispatches from it, and a frame the table does not
// serve gets the same treatment on every link (Call.Refuse). The roles
// above deal in message types and bodies only. Bulk data stays on the
// endpoint's streams (Endpoint), beside the Conn, not through it.
//
// There is one way for a call to learn its connection died: ErrLost. The
// close path fails every waiting call with it, later calls get it without
// touching the wire, and a send that finds the endpoint already closed
// returns it too — so no caller has to order itself against the close
// notice to tell a dead connection from a refused request.
package rpc

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// ErrLost is the error (matched with errors.Is) of every operation on a
// connection that has died.
var ErrLost = errors.New("rpc: connection lost")

func lost(cause error) error {
	if cause == nil {
		return ErrLost
	}
	return fmt.Errorf("%w: %v", ErrLost, cause)
}

// Conn is a request/response connection over one gcf endpoint. All
// methods are safe for concurrent use.
type Conn struct {
	ep *gcf.Endpoint

	mu       sync.Mutex
	nextID   uint32
	pending  map[uint32]chan *protocol.Reader // nil once the connection is lost
	unserved map[protocol.MsgType]uint64      // frames refused without an answer
}

// New wraps an endpoint that has not been started.
func New(ep *gcf.Endpoint) *Conn {
	return &Conn{ep: ep, pending: map[uint32]chan *protocol.Reader{}, unserved: map[protocol.MsgType]uint64{}}
}

// Route names, for one message type, the handler of each class a role
// serves it in; nil means the type is not served in that class. A type is
// served in the class its senders use, and in two only when it has two
// kinds of sender — a daemon's ping is a manager's health probe, asked,
// and its epoch push, told — which can name one handler twice:
// Call.Reply is a no-op outside request class.
type Route struct {
	Request, OneWay, Notify func(Call)
}

// Routes is a role's receive table, indexed by protocol.MsgType. It is the
// whole statement of what the role serves: a frame no row serves gets the
// one treatment of Call.Refuse with cl.InvalidOperation.
type Routes []Route

// Handler returns the handler the table names for a type in a class, nil
// when it serves none.
func (rt Routes) Handler(typ protocol.MsgType, class uint8) func(Call) {
	if int(typ) >= len(rt) {
		return nil
	}
	switch class {
	case protocol.ClassRequest:
		return rt[typ].Request
	case protocol.ClassOneWay:
		return rt[typ].OneWay
	case protocol.ClassNotification:
		return rt[typ].Notify
	}
	return nil
}

// Call is one inbound frame as its handler sees it.
type Call struct {
	ID    uint32 // what a response must carry; 0 outside request class
	Type  protocol.MsgType
	Class uint8
	Body  *protocol.Reader
	conn  *Conn
}

// Reply answers a request: the status first, then whatever fill appends.
// Outside request class nobody waits for an answer and Reply does nothing.
func (c Call) Reply(status cl.ErrorCode, fill func(*protocol.Writer)) {
	if c.Class != protocol.ClassRequest {
		return
	}
	w := protocol.NewFrame()
	w.I32(int32(status))
	if fill != nil {
		fill(w)
	}
	// A reply that cannot be sent has nobody to go to: the connection is
	// gone, and its close notice is what tells the role.
	_ = write(c.conn.ep, protocol.ClassResponse, c.ID, c.Type, w)
}

// Refuse turns the frame away: a request is answered with status, so that
// no caller waits on a receiver that will not act; anything else is
// dropped and counted (Unserved). It is what a frame no row serves gets
// (cl.InvalidOperation) and what a handler does with a body it cannot
// decode (Malformed) or whose fields make no sense (cl.InvalidValue).
func (c Call) Refuse(status cl.ErrorCode) {
	if c.Class == protocol.ClassRequest {
		c.Reply(status, nil)
		return
	}
	c.conn.mu.Lock()
	c.conn.unserved[c.Type]++
	c.conn.mu.Unlock()
}

// Malformed reports whether the body failed to decode, having refused the
// frame with cl.InvalidValue if so. A handler reads its fields, asks, and
// returns on true — before it acts on any of them.
func (c Call) Malformed() bool {
	if c.Body.Err() == nil {
		return false
	}
	c.Refuse(cl.InvalidValue)
	return true
}

// Unserved reports, by type, the one-way and notification frames dropped
// so far: no row served them, or their handler refused the body. The role
// logs them; nothing else ever hears of such a frame.
func (c *Conn) Unserved() map[protocol.MsgType]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.unserved)
}

// Start launches the receive side, the one receive path of every role.
// Responses go to their waiting calls (one with an unknown or
// already-answered ID is dropped, as is a frame too short to parse); every
// other frame goes to the handler routes names for its type and class, or
// is refused, on the endpoint's dispatch goroutine, in arrival order. When
// the connection dies, after every frame that came before, every waiting
// call fails with ErrLost, then onLost (may be nil) runs once with the
// transport's reason, on the same goroutine (see gcf.Handler).
func (c *Conn) Start(routes Routes, onLost func(error)) {
	c.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			return
		}
		if env.Class != protocol.ClassResponse {
			call := Call{ID: env.ID, Type: env.Type, Class: env.Class, Body: env.Body, conn: c}
			if h := routes.Handler(env.Type, env.Class); h != nil {
				h(call)
			} else {
				call.Refuse(cl.InvalidOperation)
			}
			return
		}
		c.mu.Lock()
		ch := c.pending[env.ID]
		delete(c.pending, env.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- env.Body
		}
	}, func(err error) {
		c.mu.Lock()
		pend := c.pending
		c.pending = nil
		c.mu.Unlock()
		for _, ch := range pend {
			close(ch)
		}
		if onLost != nil {
			onLost(err)
		}
	})
}

// Call sends a request and waits for its response, whose body it returns
// positioned after the leading status field. A status other than
// cl.Success comes back as a *cl.Error carrying it, together with the
// body (a refusal may explain itself there). A positive timeout bounds
// the wait — the late response is then dropped; zero waits until the
// connection dies.
func (c *Conn) Call(typ protocol.MsgType, timeout time.Duration, fill func(*protocol.Writer)) (*protocol.Reader, error) {
	ch := make(chan *protocol.Reader, 1)
	c.mu.Lock()
	if c.pending == nil {
		c.mu.Unlock()
		return nil, lost(c.ep.CloseErr())
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	forget := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	if err := write(c.ep, protocol.ClassRequest, id, typ, body(fill)); err != nil {
		forget()
		return nil, err
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, lost(c.ep.CloseErr())
		}
		if status := cl.ErrorCode(resp.I32()); status != cl.Success {
			return resp, cl.Errf(status, "%s failed", typ)
		}
		return resp, nil
	case <-deadline:
		forget()
		return nil, fmt.Errorf("rpc: %s unanswered after %s", typ, timeout)
	}
}

// OneWay sends a request nobody answers: success is silent, and what a
// failure looks like is the receiving role's business.
func (c *Conn) OneWay(typ protocol.MsgType, fill func(*protocol.Writer)) error {
	return OneWay(c.ep, typ, fill)
}

// OneWay sends a one-way request on a bare endpoint: the peer plane's
// pooled connections, which the pool starts itself and on which nothing
// is ever answered.
func OneWay(ep *gcf.Endpoint, typ protocol.MsgType, fill func(*protocol.Writer)) error {
	return write(ep, protocol.ClassOneWay, 0, typ, body(fill))
}

// Notify sends an unsolicited notification.
func (c *Conn) Notify(typ protocol.MsgType, fill func(*protocol.Writer)) error {
	return write(c.ep, protocol.ClassNotification, 0, typ, body(fill))
}

// body encodes a message body into a pooled frame writer (write hands it
// back).
func body(fill func(*protocol.Writer)) *protocol.Writer {
	w := protocol.NewFrame()
	if fill != nil {
		fill(w)
	}
	return w
}

// write seals the frame writer w from body and queues its frame, then
// hands w back to the pool: Send copies the frame, so nothing holds it.
// The transport sends later, so the only failures seen here are a message
// over the frame limit and an endpoint that is closed or closing —
// ErrLost, whether or not the close notice has run yet.
func write(ep *gcf.Endpoint, class uint8, id uint32, typ protocol.MsgType, w *protocol.Writer) error {
	err := ep.Send(w.Seal(class, id, typ))
	protocol.PutFrame(w)
	if err == nil || errors.Is(err, gcf.ErrTooLarge) {
		return err
	}
	return lost(err)
}

// Endpoint returns the transport under the connection, for its bulk-data
// streams, heartbeat and close state.
func (c *Conn) Endpoint() *gcf.Endpoint { return c.ep }

// Close terminates the connection; queued frames are flushed first.
func (c *Conn) Close() { _ = c.ep.Close() } // gcf's Close cannot fail

// FetchShardMap asks the addresses in turn for the control plane's
// membership view and returns the first answer, each on a connection of
// its own. timeout bounds one attempt against a peer that accepts and
// then says nothing; one that refuses, or dies mid-request, costs no wait.
func FetchShardMap(dial func(addr string) (net.Conn, error), addrs []string, timeout time.Duration) (protocol.ShardMap, error) {
	lastErr := errors.New("rpc: no device manager address to ask for the shard map")
	for _, addr := range addrs {
		conn, err := dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		c := New(gcf.NewEndpoint(conn, true))
		c.Start(nil, nil)
		resp, err := c.Call(protocol.MsgDMShardMap, timeout, nil)
		c.Close()
		if err == nil {
			view := protocol.GetShardMap(resp)
			if err = resp.Err(); err == nil {
				return view, nil
			}
		}
		lastErr = fmt.Errorf("shard map from %s: %w", addr, err)
	}
	return protocol.ShardMap{}, lastErr
}
