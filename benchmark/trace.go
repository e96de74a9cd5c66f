package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer (workload → iteration → client.*/native.*/darray.*/...
// call). Spans live in memory and are written as Chrome-trace JSON when
// the benchmark ends. Spans inside the program under test are a later
// change (ROADMAP item 2); here only benchmark-side boundaries exist.

// span is one recorded interval.
type span struct {
	Name   string
	ID     int
	Parent int // 0: root
	Lane   int // Chrome-trace tid: one per load-generating goroutine
	Start  time.Duration
	End    time.Duration
}

// tracer is the in-memory span store. A nil *tracer records nothing, so
// untraced runs pay a nil check per boundary and nothing else.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is one load-generating goroutine's position in the span tree:
// layer-call spans attach to the goroutine's current iteration, which is
// the request id every span of that iteration shares.
type scope struct {
	t    *tracer
	lane int
	cur  atomic.Int64 // current parent span id
}

// scope returns a recording position for one goroutine (nil when t is).
func (t *tracer) scope(lane int) *scope {
	if t == nil {
		return nil
	}
	return &scope{t: t, lane: lane}
}

// open records a span's start under the current parent.
func (s *scope) open(name string) int {
	t := s.t
	start := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: int(s.cur.Load()), Lane: s.lane, Start: start})
	t.mu.Unlock()
	return id
}

func (s *scope) close(id int) {
	end := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans[id-1].End = end
	s.t.mu.Unlock()
}

// begin opens a span (a round, an iteration, a phase) and makes it the
// parent of later spans until the returned func closes it. Only the
// goroutine that owns the scope calls begin.
func (s *scope) begin(name string) (end func()) {
	if s == nil {
		return func() {}
	}
	id := s.open(name)
	prev := s.cur.Swap(int64(id))
	return func() {
		s.close(id)
		s.cur.Store(prev)
	}
}

// call opens a leaf span around one call into a layer. The program
// under test may make such calls from goroutines of its own (sched's
// per-device workers), so call never moves the scope's parent.
func (s *scope) call(name string) (end func()) {
	if s == nil {
		return func() {}
	}
	id := s.open(name)
	return func() { s.close(id) }
}

// durations returns the seconds of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.End > 0 {
			out = append(out, (sp.End - sp.Start).Seconds())
		}
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as loadable Chrome-trace JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		if sp.End == 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.Lane,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// wire counts the traffic of one class of connections (client↔daemon or
// daemon↔daemon peer plane). Counting wrappers hide the *net.TCPConn
// from net.Buffers, so in traced runs a gcf writev batch arrives as one
// Write call per scatter element; Writes therefore counts elements, an
// upper bound on the syscalls of the untraced run.
type wire struct {
	Writes       atomic.Int64
	BytesWritten atomic.Int64
	BytesRead    atomic.Int64
}

// bytes returns the bytes that crossed the counted connections' dialing
// side in both directions.
func (w *wire) bytes() int64 { return w.BytesWritten.Load() + w.BytesRead.Load() }

type countedConn struct {
	net.Conn
	w *wire
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.Writes.Add(1)
	c.w.BytesWritten.Add(int64(n))
	return n, err
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.BytesRead.Add(int64(n))
	return n, err
}

// counted wraps conn when w is non-nil.
func counted(conn net.Conn, w *wire) net.Conn {
	if w == nil || conn == nil {
		return conn
	}
	return &countedConn{Conn: conn, w: w}
}

// countedListener wraps every accepted connection.
type countedListener struct {
	net.Listener
	w *wire
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return counted(c, l.w), nil
}
