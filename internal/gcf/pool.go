package gcf

import (
	"net"
	"sync"
)

// Pool is a reusable set of outbound endpoints keyed by address: the
// connection cache of the daemon-to-daemon bulk plane. The first Get for
// an address dials it and runs the optional handshake; later Gets reuse
// the live endpoint, so concurrent transfers to one peer multiplex their
// streams over a single connection and share its coalescing/backpressure
// machinery. A dead endpoint evicts itself, and the next Get re-dials.
type Pool struct {
	dial  func(addr string) (net.Conn, error)
	hello func(ep *Endpoint) error // post-dial handshake, nil for none

	mu      sync.Mutex
	entries map[string]*poolEntry
	closed  bool
}

// poolEntry is one address slot. ready gates concurrent Gets on the same
// address behind a single dial (per-address singleflight); the pool lock
// is never held across the dial itself.
type poolEntry struct {
	ready chan struct{}
	ep    *Endpoint
	err   error
}

// NewPool creates a pool dialing through dial. hello, when non-nil, runs
// once on every freshly dialed endpoint before it is handed out; a
// handshake error discards the connection. Inbound messages on pooled
// connections are dropped: the peer bulk plane is one-directional, with
// headers and payload flowing toward the dialed side and nothing back.
func NewPool(dial func(addr string) (net.Conn, error), hello func(ep *Endpoint) error) *Pool {
	return &Pool{dial: dial, hello: hello, entries: map[string]*poolEntry{}}
}

// Get returns a live endpoint for addr, dialing it if needed. Concurrent
// callers for the same address share one dial; a failed dial is reported
// to all of them and forgotten, so the next Get retries.
func (p *Pool) Get(addr string) (*Endpoint, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if e, ok := p.entries[addr]; ok {
		p.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		if e.ep.Closed() {
			// Dead, but its close notice has not run yet: do not hand it
			// out again.
			p.evict(addr, e)
			return p.Get(addr)
		}
		return e.ep, nil
	}
	e := &poolEntry{ready: make(chan struct{})}
	p.entries[addr] = e
	p.mu.Unlock()

	conn, err := p.dial(addr)
	if err == nil {
		ep := NewEndpoint(conn, true)
		ep.Start(func([]byte) {}, func(error) { p.evict(addr, e) })
		if p.hello != nil {
			if herr := p.hello(ep); herr != nil {
				ep.Close()
				err = herr
			}
		}
		if err == nil {
			e.ep = ep
		}
	}
	if err != nil {
		e.err = err
		p.evict(addr, e)
	}
	close(e.ready)
	return e.ep, e.err
}

// evict forgets the entry if it is still the current one for addr (a
// replacement dialed after a close must not be dropped by the stale
// endpoint's close notice).
func (p *Pool) evict(addr string, e *poolEntry) {
	p.mu.Lock()
	if p.entries[addr] == e {
		delete(p.entries, addr)
	}
	p.mu.Unlock()
}

// Len reports the number of live (or in-flight) entries.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Close shuts every pooled endpoint down and rejects future Gets.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	entries := p.entries
	p.entries = map[string]*poolEntry{}
	p.mu.Unlock()
	for _, e := range entries {
		go func(e *poolEntry) {
			<-e.ready
			if e.ep != nil {
				e.ep.Close()
			}
		}(e)
	}
}
