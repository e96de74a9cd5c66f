// Package rpc is the one request/response connection of the dOpenCL
// communication framework (Section III-B of the paper): every exchange
// between client and daemon, manager and daemon, manager shard and manager
// shard, and client or daemon and manager rides a Conn. A Conn owns the
// protocol envelope over a gcf endpoint's message channel — request IDs,
// the window of calls awaiting a response, reply framing — so the roles
// above it deal in message types and bodies only. Bulk data stays on the
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

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan *protocol.Reader // nil once the connection is lost
}

// New wraps an endpoint that has not been started.
func New(ep *gcf.Endpoint) *Conn {
	return &Conn{ep: ep, pending: map[uint32]chan *protocol.Reader{}}
}

// Start launches the receive side. Responses go to their waiting calls
// (one with an unknown or already-answered ID is dropped, as is a frame
// too short to parse); every other frame is handed to handle (nil: dropped)
// on the endpoint's dispatch goroutine, in arrival order. When the
// connection dies every waiting call fails with ErrLost, then onLost (may
// be nil) runs once with the transport's reason.
func (c *Conn) Start(handle func(protocol.Envelope), onLost func(error)) {
	c.ep.Start(func(msg []byte) {
		env, err := protocol.ParseEnvelope(msg)
		if err != nil {
			return
		}
		if env.Class != protocol.ClassResponse {
			if handle != nil {
				handle(env)
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

// Reply answers the request that arrived with the given ID and type: the
// status first, then whatever fill appends.
func (c *Conn) Reply(id uint32, typ protocol.MsgType, status cl.ErrorCode, fill func(*protocol.Writer)) error {
	w := protocol.NewWriter()
	w.I32(int32(status))
	if fill != nil {
		fill(w)
	}
	return write(c.ep, protocol.ClassResponse, id, typ, w)
}

func body(fill func(*protocol.Writer)) *protocol.Writer {
	w := protocol.NewWriter()
	if fill != nil {
		fill(w)
	}
	return w
}

// write frames and queues one message. The transport sends later, so the
// only failures seen here are a message over the frame limit and an
// endpoint that is closed or closing — ErrLost, whether or not the close
// notice has run yet.
func write(ep *gcf.Endpoint, class uint8, id uint32, typ protocol.MsgType, w *protocol.Writer) error {
	err := ep.Send(protocol.EncodeEnvelope(class, id, typ, w))
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
