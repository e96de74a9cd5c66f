package gcf

// In-process fast path: when client and daemon share a process there is
// no reason to serialize frames through a socket (or even a net.Pipe) —
// the bytes would be memcpy'd into a staging buffer, framed, copied
// through the kernel, unframed and memcpy'd out again. A local endpoint
// pair short-circuits all of that at the queueFrame choke point, which
// every sender (Send, Stream.WriteOwned, CloseWrite) funnels through:
//
//   - messages are copied once into the peer's dispatch queue (Send's
//     contract hands the slice back to the caller on return, so the copy
//     is the copy-on-write protection — the receiver can never observe a
//     later mutation);
//   - stream data (WriteOwned, the one stream write) crosses with NO copy
//     at all: the receiver reads the writer's slice in place, and the
//     release callback fires when the chunk is fully consumed (or the
//     stream is torn down), preserving the exactly-once release contract
//     that the deferred-flush write loop provides on the socket path.
//
// Everything above the Endpoint API — sessions, protocol handlers,
// coherence, streams — is unchanged and cannot tell the difference,
// which is what keeps the fast path bit-identical to the socket path.

import (
	"fmt"
	"io"
	"sync"
)

// NewLocalPair returns two connected in-process endpoints: client
// allocates odd stream IDs, server even ones, exactly like a dialed
// NewEndpoint pair. Neither endpoint runs write or read loops; frames
// are delivered synchronously (but dispatched asynchronously, preserving
// the socket path's ordering and non-blocking-send semantics). Closing
// either side shuts both down, like a conn close.
func NewLocalPair() (client, server *Endpoint) {
	client = newLocalEndpoint(1)
	server = newLocalEndpoint(2)
	client.peer = server
	server.peer = client
	return client, server
}

func newLocalEndpoint(firstID uint32) *Endpoint {
	e := &Endpoint{
		streams: map[uint32]*Stream{},
		done:    make(chan struct{}),
		wdone:   make(chan struct{}),
		nextID:  firstID,
	}
	e.msgCond = sync.NewCond(&e.msgMu)
	e.wcond = sync.NewCond(&e.wmu)
	// No write loop ever runs, so the flush-drain channel an orderly
	// shutdown waits on must start closed.
	close(e.wdone)
	return e
}

// deliverLocal is the in-process replacement for the stage→flush→read
// pipeline: one frame, delivered straight into the peer's message queue
// or stream buffer. Stream data is always owned (WriteOwned).
func (e *Endpoint) deliverLocal(ch uint32, payload []byte, release func()) error {
	p := e.peer
	if p.closed.Load() {
		return ErrClosed
	}
	switch ch {
	case hbChannel:
		// A process-local link cannot silently partition; probes are moot.
		return nil
	case msgChannel:
		msg := append([]byte(nil), payload...)
		p.msgMu.Lock()
		p.msgs = append(p.msgs, msg)
		p.msgCond.Broadcast()
		p.msgMu.Unlock()
		return nil
	}
	s := p.Stream(ch)
	if len(payload) == 0 {
		s.closeRead(io.EOF)
		return nil
	}
	s.pushLocal(rchunk{p: payload, release: release})
	return nil
}

// pushLocal appends an in-process chunk, refusing streams that can no
// longer be drained (endpoint shut down, EOF already delivered): the
// chunk's memory goes straight back to its owner instead of parking
// forever on a dead stream.
func (s *Stream) pushLocal(c rchunk) {
	s.mu.Lock()
	if s.rerr != nil {
		s.mu.Unlock()
		if c.release != nil {
			c.release()
		}
		return
	}
	s.chunks = append(s.chunks, c)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Local server registry: daemons publish an in-process address, clients
// dialing that address connect through a local pair instead of their
// socket dialer.
var (
	localMu      sync.Mutex
	localServers = map[string]func(server *Endpoint){}
)

// RegisterLocal publishes an in-process server under addr. Each
// DialLocal(addr) creates a fresh endpoint pair and hands the server
// side to accept, which must start its session loops (Endpoint.Start).
func RegisterLocal(addr string, accept func(server *Endpoint)) error {
	localMu.Lock()
	defer localMu.Unlock()
	if _, dup := localServers[addr]; dup {
		return fmt.Errorf("gcf: local address %s already registered", addr)
	}
	localServers[addr] = accept
	return nil
}

// UnregisterLocal removes a local server registration. Live connections
// are unaffected; only future dials stop resolving locally.
func UnregisterLocal(addr string) {
	localMu.Lock()
	delete(localServers, addr)
	localMu.Unlock()
}

// DialLocal connects to the in-process server registered under addr,
// returning the client endpoint. ok is false when no local server is
// registered there — callers fall back to their socket dialer.
func DialLocal(addr string) (client *Endpoint, ok bool) {
	localMu.Lock()
	accept := localServers[addr]
	localMu.Unlock()
	if accept == nil {
		return nil, false
	}
	c, srv := NewLocalPair()
	accept(srv)
	return c, true
}
