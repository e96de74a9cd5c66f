package client

import (
	"slices"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/coherence"
	"dopencl/internal/kernel"
	"dopencl/internal/protocol"
	"dopencl/internal/serve"
)

// Context is a compound stub (Section III-D): the single context object
// the application sees is backed by one remote context per participating
// server, each created with only that server's devices.
type Context struct {
	plat    *Platform
	devices []*Device
	servers []*Server // participating servers, deduplicated

	remoteIDs map[*Server]uint64 // server → remote context ID

	mu        sync.Mutex
	cohQueues map[*Server]*Queue // internal queues for coherence traffic
	released  bool

	// Recovery registries: the live objects replicated on each server, so
	// a re-attach to a daemon that lost its state (restart, session
	// expiry) can re-create this client's remote objects under their
	// original IDs.
	bufs   []*Buffer
	progs  []*Program
	queues []*Queue
}

var _ cl.Context = (*Context)(nil)

// CreateContext builds a distributed context across the given devices,
// which may live on different servers (enabled by the uniform platform).
func (p *Platform) CreateContext(devices []cl.Device) (cl.Context, error) {
	if len(devices) == 0 {
		return nil, cl.Errf(cl.InvalidValue, "context requires at least one device")
	}
	ctx := &Context{
		plat:      p,
		remoteIDs: map[*Server]uint64{},
		cohQueues: map[*Server]*Queue{},
	}
	perServer := map[*Server][]uint64{}
	for _, d := range devices {
		cd, ok := d.(*Device)
		if !ok {
			return nil, cl.Errf(cl.InvalidDevice, "device %q does not belong to the dOpenCL platform", d.Name())
		}
		if !cd.srv.Connected() {
			return nil, cl.Errf(cl.DeviceNotAvailable, "device %q belongs to a disconnected server", d.Name())
		}
		ctx.devices = append(ctx.devices, cd)
		if _, seen := ctx.remoteIDs[cd.srv]; !seen {
			ctx.remoteIDs[cd.srv] = p.newID()
			ctx.servers = append(ctx.servers, cd.srv)
		}
		perServer[cd.srv] = append(perServer[cd.srv], uint64(cd.unitID))
	}
	// Replicate creation to every participating server: each remote
	// context holds only the devices hosted by that server. The creation
	// is a pipelined one-way send (see Server.send): the context ID is the
	// client's, and every later message naming it rides the same ordered
	// connection.
	for _, srv := range ctx.servers {
		if err := srv.send(protocol.MsgCreateContext, contextBody(ctx.remoteIDs[srv], perServer[srv])); err != nil {
			return nil, err
		}
	}
	p.registerContext(ctx)
	return ctx, nil
}

// Devices returns the context's devices.
func (c *Context) Devices() []cl.Device {
	out := make([]cl.Device, len(c.devices))
	for i, d := range c.devices {
		out[i] = d
	}
	return out
}

// remoteContextID resolves the remote context ID on srv.
func (c *Context) remoteContextID(srv *Server) (uint64, error) {
	id, ok := c.remoteIDs[srv]
	if !ok {
		return 0, cl.Errf(cl.InvalidContext, "server %s does not participate in this context", srv.addr)
	}
	return id, nil
}

// canForward reports whether a buffer transfer from src to dst can use
// the daemon-to-daemon bulk plane: both daemons must be alive, src must
// be able to originate forwards, dst must expose a peer address, and src
// must not have already failed to reach dst's peer plane (in which case
// transfers fall back to the client-mediated path).
func (c *Context) canForward(src, dst *Server) bool {
	return src != nil && dst != nil && src != dst &&
		src.Connected() && dst.Connected() &&
		src.CanForward() && dst.PeerAddr() != "" &&
		src.peerReachable(dst.PeerAddr())
}

// coherenceQueue returns (lazily creating) the internal command queue used
// for MSI coherence transfers on srv. It is bound to the first context
// device hosted by srv.
func (c *Context) coherenceQueue(srv *Server) (*Queue, error) {
	c.mu.Lock()
	if q, ok := c.cohQueues[srv]; ok {
		c.mu.Unlock()
		return q, nil
	}
	c.mu.Unlock()
	var dev *Device
	for _, d := range c.devices {
		if d.srv == srv {
			dev = d
			break
		}
	}
	if dev == nil {
		return nil, cl.Errf(cl.InvalidContext, "no device of server %s in context", srv.addr)
	}
	q, err := c.createQueue(dev)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if existing, ok := c.cohQueues[srv]; ok {
		c.mu.Unlock()
		if rerr := q.Release(); rerr != nil {
			return existing, nil
		}
		return existing, nil
	}
	c.cohQueues[srv] = q
	c.mu.Unlock()
	return q, nil
}

// removeFirst drops the first element equal to x from s (shared by the
// recovery-registry forget paths; callers hold the registry's lock).
func removeFirst[T comparable](s []T, x T) []T {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// forgetBuffer / forgetQueue / forgetProgram drop released objects from
// the recovery registries so a long-running client that churns objects
// does not grow them (and pin the released objects) without bound.
func (c *Context) forgetBuffer(b *Buffer) {
	c.mu.Lock()
	c.bufs = removeFirst(c.bufs, b)
	c.mu.Unlock()
}

func (c *Context) forgetQueue(q *Queue) {
	c.mu.Lock()
	c.queues = removeFirst(c.queues, q)
	c.mu.Unlock()
}

func (c *Context) forgetProgram(p *Program) {
	c.mu.Lock()
	c.progs = removeFirst(c.progs, p)
	c.mu.Unlock()
}

// The bodies of the four create messages, shared by creation and
// re-attach recovery.

func contextBody(rctx uint64, units []uint64) func(*protocol.Writer) {
	return func(w *protocol.Writer) {
		w.U64(rctx)
		w.U64s(units)
	}
}

func queueBody(id, rctx uint64, unitID uint32) func(*protocol.Writer) {
	return func(w *protocol.Writer) {
		w.U64(id)
		w.U64(rctx)
		w.U64(uint64(unitID))
	}
}

func bufferBody(id, rctx uint64, flags cl.MemFlags, size int) func(*protocol.Writer) {
	return func(w *protocol.Writer) {
		w.U64(id)
		w.U64(rctx)
		w.U32(uint32(flags &^ cl.MemCopyHostPtr))
		w.I64(int64(size))
		w.U32(0) // no init stream: contents are uploaded lazily by coherence
	}
}

func programBody(id, rctx uint64, src string) func(*protocol.Writer) {
	return func(w *protocol.Writer) {
		w.U64(id)
		w.U64(rctx)
		w.String(src)
	}
}

// liveBuffers snapshots the context's unreleased root buffers.
func (c *Context) liveBuffers() []*Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Buffer
	for _, b := range c.bufs {
		b.mu.Lock()
		released := b.released
		b.mu.Unlock()
		if !released {
			out = append(out, b)
		}
	}
	return out
}

// resyncServer re-sends this context's remote objects to srv after a
// re-attach, in the one-way frames the application sends them in, in
// dependency order: the context, its buffers, its programs with their
// builds, its queues, then its kernels with their bindings. Both modes
// re-send everything: a retained session may still miss any of them —
// creates are one-way and the last ones sent may have died with the link,
// and objects made during the outage skipped the dead server — and the
// daemon's handlers are idempotent against a session that holds them: a
// context or queue it holds is kept, an existing buffer of the same size
// keeps its contents, programs and kernels are overwritten and the
// bindings replayed. Platform.serverReattached confirms all of it with
// one request behind the last frame. The region directories need nothing:
// the server's copies count again once its incarnation says so.
func (c *Context) resyncServer(srv *Server) error {
	rid, err := c.remoteContextID(srv)
	if err != nil {
		return err
	}
	c.mu.Lock()
	progs := append([]*Program(nil), c.progs...)
	queues := append([]*Queue(nil), c.queues...)
	c.mu.Unlock()
	var units []uint64
	for _, d := range c.devices {
		if d.srv == srv {
			units = append(units, uint64(d.unitID))
		}
	}
	if err := srv.send(protocol.MsgCreateContext, contextBody(rid, units)); err != nil {
		return err
	}
	for _, b := range c.liveBuffers() {
		if err := srv.send(protocol.MsgCreateBuffer, bufferBody(b.id, rid, b.flags, b.size)); err != nil {
			return err
		}
	}
	var built []*Program
	for _, p := range progs {
		p.mu.Lock()
		released, isBuilt, opts := p.released, p.local != nil, p.buildOpts
		p.mu.Unlock()
		if released {
			continue
		}
		if err := srv.send(protocol.MsgCreateProgram, programBody(p.id, rid, p.src)); err != nil {
			return err
		}
		if !isBuilt {
			continue
		}
		if err := srv.send(protocol.MsgBuildProgram, func(w *protocol.Writer) {
			w.U64(p.id)
			w.String(opts)
		}); err != nil {
			return err
		}
		built = append(built, p)
	}
	for _, q := range queues {
		if q.srv != srv || q.isReleased() {
			continue
		}
		if err := srv.send(protocol.MsgCreateQueue, queueBody(q.id, rid, q.dev.unitID)); err != nil {
			return err
		}
	}
	for _, p := range built {
		for _, k := range p.liveKernels() {
			if err := srv.send(protocol.MsgCreateKernel, func(w *protocol.Writer) {
				w.U64(k.id)
				w.U64(p.id)
				w.String(k.name)
			}); err != nil {
				return err
			}
			if err := k.resendArgs(srv); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateQueue creates a command queue on the given context device: a
// simple stub, since a queue is owned by exactly one server.
func (c *Context) CreateQueue(d cl.Device) (cl.Queue, error) {
	cd, ok := d.(*Device)
	if !ok {
		return nil, cl.Errf(cl.InvalidDevice, "foreign device")
	}
	found := false
	for _, dev := range c.devices {
		if dev == cd {
			found = true
			break
		}
	}
	if !found {
		return nil, cl.Errf(cl.InvalidDevice, "device %q not in context", d.Name())
	}
	return c.createQueue(cd)
}

func (c *Context) createQueue(cd *Device) (*Queue, error) {
	rctx, err := c.remoteContextID(cd.srv)
	if err != nil {
		return nil, err
	}
	id := c.plat.newID()
	if err := cd.srv.send(protocol.MsgCreateQueue, queueBody(id, rctx, cd.unitID)); err != nil {
		return nil, err
	}
	q := &Queue{ctx: c, srv: cd.srv, dev: cd, id: id}
	c.mu.Lock()
	c.queues = append(c.queues, q)
	c.mu.Unlock()
	return q, nil
}

// CreateBuffer allocates a distributed buffer object: the compound stub is
// the region-granular MSI directory; remote buffers are created on every
// participating server and start in the Invalid state, the client's
// (conceptual) copy is Shared (Section III-D). The directory starts as
// one span covering the whole buffer and splits on demand as commands
// touch sub-ranges.
func (c *Context) CreateBuffer(flags cl.MemFlags, size int, host []byte) (cl.Buffer, error) {
	if size <= 0 {
		return nil, cl.Errf(cl.InvalidBufferSize, "buffer size %d", size)
	}
	if flags&cl.MemCopyHostPtr != 0 && len(host) != size {
		return nil, cl.Errf(cl.InvalidValue, "MemCopyHostPtr requires len(host) == size")
	}
	// The daemons refuse a buffer none of their context devices could
	// allocate; the device stubs carry that limit, so it is checked here.
	for _, srv := range c.servers {
		fits := func(d *Device) bool { return d.srv == srv && int64(size) <= d.info.MaxAllocSize }
		if !slices.ContainsFunc(c.devices, fits) {
			return nil, cl.Errf(cl.InvalidBufferSize, "buffer of %d bytes exceeds the largest allocation of every context device on %s", size, srv.addr)
		}
	}
	b := &Buffer{
		ctx:   c,
		id:    c.plat.newID(),
		size:  size,
		flags: flags,
	}
	if flags&cl.MemCopyHostPtr != 0 {
		b.hostCopy = append([]byte(nil), host...)
	}
	holders := make([]coherence.Holder, len(c.servers))
	for i, srv := range c.servers {
		holders[i] = srv
	}
	b.coh = coherence.New(b.id, size, holders...)
	for _, srv := range c.servers {
		// Dead servers are skipped, like CreateKernel/SetArg: their copy
		// is Invalid anyway, the re-attach recovery re-creates the remote
		// object, and the application keeps computing on the survivors.
		if !srv.Connected() {
			continue
		}
		if err := srv.send(protocol.MsgCreateBuffer, bufferBody(b.id, c.remoteIDs[srv], flags, size)); err != nil && srv.Connected() {
			return nil, err
		}
	}
	c.mu.Lock()
	c.bufs = append(c.bufs, b)
	c.mu.Unlock()
	return b, nil
}

// CreateProgramWithSource wraps kernel source in a compound program stub;
// the source is replicated to every participating server (the paper ships
// program code over the network at run time).
func (c *Context) CreateProgramWithSource(src string) (cl.Program, error) {
	if src == "" {
		return nil, cl.Errf(cl.InvalidValue, "empty program source")
	}
	p := &Program{ctx: c, id: c.plat.newID(), src: src}
	for _, srv := range c.servers {
		// Dead servers are skipped (re-created by the re-attach recovery).
		if !srv.Connected() {
			continue
		}
		if err := srv.send(protocol.MsgCreateProgram, programBody(p.id, c.remoteIDs[srv], src)); err != nil && srv.Connected() {
			return nil, err
		}
	}
	c.mu.Lock()
	c.progs = append(c.progs, p)
	c.mu.Unlock()
	return p, nil
}

// CreateUserEvent creates a client-controlled event usable in wait lists
// on any participating server.
func (c *Context) CreateUserEvent() (cl.UserEvent, error) {
	return newUserEventStub(c), nil
}

// sendRelease pipelines the release of the object the context's servers
// know as id: the daemon serves it in order, behind the commands that use
// the object. A server that is down has nothing left to release.
func (c *Context) sendRelease(typ protocol.MsgType, id uint64) error {
	var first error
	for _, srv := range c.servers {
		if err := srv.send(typ, func(w *protocol.Writer) { w.U64(id) }); err != nil && first == nil && srv.Connected() {
			first = err
		}
	}
	return first
}

// Release releases the remote contexts and internal coherence queues.
func (c *Context) Release() error {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return nil
	}
	c.released = true
	queues := c.cohQueues
	c.cohQueues = map[*Server]*Queue{}
	c.mu.Unlock()
	c.plat.forgetContext(c)
	var first error
	for _, q := range queues {
		if err := q.Release(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range c.servers {
		rid := c.remoteIDs[srv]
		if err := srv.send(protocol.MsgReleaseContext, func(w *protocol.Writer) {
			w.U64(rid)
		}); err != nil && first == nil && srv.Connected() {
			first = err
		}
	}
	return first
}

// Program is a compound stub for a program replicated across servers.
// Consistency is asserted by replicating API calls to all remote objects
// (Section III-D).
type Program struct {
	ctx *Context
	id  uint64
	src string

	mu sync.Mutex
	// local is the client's own compile of src, set by a successful Build
	// (nil: not built). MiniCL compilation is deterministic, so it is what
	// the daemons build: kernel names and argument metadata, no round trip.
	local     *kernel.Program
	buildOpts string
	buildLog  string    // the client's compiler's verdict: every server's log
	kernels   []*Kernel // live kernels, for re-attach recovery
	released  bool
}

var _ cl.Program = (*Program)(nil)

// Source returns the program source.
func (p *Program) Source() string { return p.src }

// Build replicates clBuildProgram to every participating server without
// waiting for any. The verdict is the client's own compile, through the
// process's program cache (kernel.Shared): a source that does not compile
// fails here, the compiler's message being every server's build log, as
// each daemon would have answered. The daemons are told one-way, ahead of
// the kernels and launches that need the build; one that disagrees (it
// never got the program, say) reports it like a refused create, once, at
// the next wait on it. Dead servers are skipped: re-attach rebuilds there.
func (p *Program) Build(devices []cl.Device, options string) error {
	local, err := kernel.Shared(p.src)
	if err != nil {
		p.mu.Lock()
		p.buildLog = err.Error()
		p.mu.Unlock()
		return cl.Errf(cl.BuildProgramFailure, "%v", err)
	}
	told := false
	for _, srv := range p.ctx.servers {
		if !srv.Connected() {
			continue
		}
		if err := srv.send(protocol.MsgBuildProgram, func(w *protocol.Writer) {
			w.U64(p.id)
			w.String(options)
		}); err != nil {
			if !srv.Connected() {
				continue
			}
			return err
		}
		told = true
	}
	if !told {
		return cl.Errf(cl.ServerLost, "no connected server to build program")
	}
	p.mu.Lock()
	p.local, p.buildOpts, p.buildLog = local, options, "" // a clean build logs nothing
	p.mu.Unlock()
	return nil
}

// built returns the client's compile of a built program.
func (p *Program) built() (*kernel.Program, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.local == nil {
		return nil, cl.Errf(cl.InvalidProgramExec, "program not built")
	}
	return p.local, nil
}

// forgetKernel drops a released kernel from the recovery registry.
func (p *Program) forgetKernel(k *Kernel) {
	p.mu.Lock()
	p.kernels = removeFirst(p.kernels, k)
	p.mu.Unlock()
}

// liveKernels snapshots the program's unreleased kernels.
func (p *Program) liveKernels() []*Kernel {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Kernel
	for _, k := range p.kernels {
		k.mu.Lock()
		released := k.released
		k.mu.Unlock()
		if !released {
			out = append(out, k)
		}
	}
	return out
}

// BuildLog returns the build log of the server hosting d: the client's
// compiler's, whichever server that is.
func (p *Program) BuildLog(d cl.Device) string {
	if _, ok := d.(*Device); !ok {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buildLog
}

// KernelNames lists kernels from the client's own compile (the source is
// the single source of truth and MiniCL compilation is deterministic).
func (p *Program) KernelNames() ([]string, error) {
	prog, err := p.built()
	if err != nil {
		return nil, err
	}
	return prog.KernelNames(), nil
}

// CreateKernel instantiates a compound kernel stub on all servers. The
// argument metadata comes from the client's own deterministic compile of
// the program source, and the remote creations are pipelined one-way
// sends: the data-parallel scheduler creates and releases kernels on
// every launch, and a round trip per server would put N×RTT of pure
// latency on that hot path. Daemon-side failures (an unknown program
// after a lost re-attach, say) surface at the next wait on that server.
func (p *Program) CreateKernel(name string) (cl.Kernel, error) {
	lp, err := p.built()
	if err != nil {
		return nil, err
	}
	fn, ok := lp.Kernel(name)
	if !ok {
		return nil, cl.Errf(cl.InvalidKernelName, "kernel %q not found", name)
	}
	k := &Kernel{prog: p, id: p.ctx.plat.newID(), name: name}
	k.argInfo = fn.Args
	k.argVals = make([]protocol.GraphKernelArg, len(k.argInfo))
	k.argBufs = make([]*Buffer, len(k.argInfo))
	k.argSet = make([]bool, len(k.argInfo))
	created := false
	for _, srv := range p.ctx.servers {
		// Dead servers are skipped: the re-attach recovery re-creates the
		// kernel there, and launches meanwhile route to the survivors.
		if !srv.Connected() {
			continue
		}
		if err := srv.send(protocol.MsgCreateKernel, func(w *protocol.Writer) {
			w.U64(k.id)
			w.U64(p.id)
			w.String(name)
		}); err != nil {
			if !srv.Connected() {
				continue
			}
			return nil, err
		}
		created = true
	}
	if !created {
		return nil, cl.Errf(cl.ServerLost, "no connected server to create kernel %s", name)
	}
	p.mu.Lock()
	p.kernels = append(p.kernels, k)
	p.mu.Unlock()
	return k, nil
}

// Release releases the program on all servers.
func (p *Program) Release() error {
	p.mu.Lock()
	p.released = true
	p.mu.Unlock()
	p.ctx.forgetProgram(p)
	return p.ctx.sendRelease(protocol.MsgReleaseProgram, p.id)
}

// Kernel is a compound stub: argument updates are replicated to the remote
// kernel object on every participating server.
type Kernel struct {
	prog *Program
	id   uint64
	name string

	serveKeyOnce sync.Once
	serveKeyBase serve.Key // memoized (source, build options, name) digest

	mu       sync.Mutex
	argInfo  []kernel.ArgInfo
	argVals  []protocol.GraphKernelArg // wire values of the bindings
	argBufs  []*Buffer                 // parallel: the stub behind each (sub-)buffer value, tracked for MSI
	argSet   []bool
	released bool
}

var _ cl.Kernel = (*Kernel)(nil)

// Name returns the kernel function name.
func (k *Kernel) Name() string { return k.name }

// NumArgs returns the number of kernel parameters.
func (k *Kernel) NumArgs() int { return len(k.argInfo) }

// ArgInfo exposes the compiled argument metadata.
func (k *Kernel) ArgInfo() []kernel.ArgInfo { return k.argInfo }

// encodeArg validates an application argument value against the
// argument metadata and converts it to its wire value, plus the buffer
// stub behind it when it binds one — shared by SetArg, graph updates and
// serve jobs.
func (k *Kernel) encodeArg(i int, v any) (protocol.GraphKernelArg, *Buffer, error) {
	var none protocol.GraphKernelArg
	if i < 0 || i >= len(k.argInfo) {
		return none, nil, cl.Errf(cl.InvalidArgIndex, "kernel %s has %d arguments", k.name, len(k.argInfo))
	}
	switch k.argInfo[i].Kind {
	case kernel.ArgScalarInt:
		iv, err := coerceInt(v)
		if err != nil {
			return none, nil, err
		}
		return protocol.GraphKernelArg{Kind: protocol.ArgValScalar, Raw: uint64(uint32(iv))}, nil, nil
	case kernel.ArgScalarFloat:
		fv, err := coerceFloat(v)
		if err != nil {
			return none, nil, err
		}
		return protocol.GraphKernelArg{Kind: protocol.ArgValScalar, Raw: uint64(floatBits(fv))}, nil, nil
	case kernel.ArgGlobalBuf:
		buf, ok := v.(*Buffer)
		if !ok {
			if cb, isCl := v.(cl.Buffer); isCl {
				buf, ok = cb.(*Buffer)
			}
		}
		if !ok || buf == nil {
			return none, nil, cl.Errf(cl.InvalidArgValue, "argument %d of %s requires a dOpenCL buffer", i, k.name)
		}
		if buf.parent != nil {
			// Sub-buffer view: the wire carries root ID + range, and the
			// coherence layer scopes the launch's reads/invalidations to
			// the view's window.
			return protocol.GraphKernelArg{Kind: protocol.ArgValSubBuffer, Raw: buf.parent.id,
				SubOrg: int64(buf.org), SubLen: int64(buf.size)}, buf, nil
		}
		return protocol.GraphKernelArg{Kind: protocol.ArgValBuffer, Raw: buf.id}, buf, nil
	case kernel.ArgLocalBuf:
		ls, ok := v.(cl.LocalSpace)
		if !ok || ls.Size <= 0 {
			return none, nil, cl.Errf(cl.InvalidArgSize, "argument %d of %s requires LocalSpace", i, k.name)
		}
		return protocol.GraphKernelArg{Kind: protocol.ArgValLocal, Local: int64(ls.Size)}, nil, nil
	}
	return none, nil, cl.Errf(cl.InvalidArgValue, "argument %d of %s has unsupported kind", i, k.name)
}

// SetArg binds argument i, replicating to all servers as pipelined
// one-way sends — the binding is validated against the argument metadata
// locally, and the daemon applies it in order ahead of any later launch
// on the same connection. The data-parallel scheduler rebinds sub-buffer
// arguments per chunk, so a blocking round trip here (even parallel
// across servers) puts a full RTT of pure latency on every chunk of the
// co-execution hot path. Disconnected servers are skipped: the binding
// is recorded locally and replayed by the re-attach recovery, so one
// dead daemon does not stall launches on the survivors. Daemon-side
// failures (a released buffer, say) surface at the next wait on that server.
func (k *Kernel) SetArg(i int, v any) error {
	val, buf, err := k.encodeArg(i, v)
	if err != nil {
		return err
	}
	body := protocol.SetKernelArg{KernelID: k.id, Index: uint32(i), Arg: val}
	for _, srv := range k.prog.ctx.servers {
		if !srv.Connected() {
			continue
		}
		if err := srv.send(protocol.MsgSetKernelArg, func(w *protocol.Writer) {
			protocol.PutSetKernelArg(w, body)
		}); err != nil && srv.Connected() {
			return err
		}
	}
	k.mu.Lock()
	// Copy-on-write: launches keep the slices they snapshotted.
	k.argVals = append([]protocol.GraphKernelArg(nil), k.argVals...)
	k.argBufs = append([]*Buffer(nil), k.argBufs...)
	k.argVals[i], k.argBufs[i], k.argSet[i] = val, buf, true
	k.mu.Unlock()
	return nil
}

// resendArgs replays the kernel's recorded argument bindings to one
// server (re-attach recovery: bindings made while the server was down
// were skipped for it).
func (k *Kernel) resendArgs(srv *Server) error {
	k.mu.Lock()
	var set []protocol.SetKernelArg
	for i, val := range k.argVals {
		if k.argSet[i] {
			set = append(set, protocol.SetKernelArg{KernelID: k.id, Index: uint32(i), Arg: val})
		}
	}
	k.mu.Unlock()
	for _, body := range set {
		if err := srv.send(protocol.MsgSetKernelArg, func(w *protocol.Writer) {
			protocol.PutSetKernelArg(w, body)
		}); err != nil {
			return err
		}
	}
	return nil
}

// snapshotArgs returns the current bindings — a launch, eager or recorded,
// runs with what was bound when it was enqueued — failing on an unset
// argument. The slices are shared and never written again (SetArg
// replaces them).
func (k *Kernel) snapshotArgs() ([]protocol.GraphKernelArg, []*Buffer, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, set := range k.argSet {
		if !set {
			return nil, nil, cl.Errf(cl.InvalidKernelArgs, "argument %d of %s not set", i, k.name)
		}
	}
	return k.argVals, k.argBufs, nil
}

// Release releases the kernel on all servers (a pipelined one-way send:
// the scheduler releases its per-launch kernels on the hot path, and the
// daemon processes the release in order after the launches that use it).
func (k *Kernel) Release() error {
	k.mu.Lock()
	k.released = true
	k.mu.Unlock()
	k.prog.forgetKernel(k)
	return k.prog.ctx.sendRelease(protocol.MsgReleaseKernel, k.id)
}

// coerceInt converts supported Go types to int32.
func coerceInt(v any) (int32, error) {
	switch x := v.(type) {
	case int32:
		return x, nil
	case int:
		return int32(x), nil
	case int64:
		return int32(x), nil
	case uint32:
		return int32(x), nil
	case uint64:
		return int32(x), nil
	}
	return 0, cl.Errf(cl.InvalidArgValue, "cannot use %T as int argument", v)
}

// coerceFloat converts supported Go types to float32.
func coerceFloat(v any) (float32, error) {
	switch x := v.(type) {
	case float32:
		return x, nil
	case float64:
		return float32(x), nil
	case int:
		return float32(x), nil
	}
	return 0, cl.Errf(cl.InvalidArgValue, "cannot use %T as float argument", v)
}
