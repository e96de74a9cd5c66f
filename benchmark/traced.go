package main

import (
	"dopencl/internal/cl"
)

// Tracing decorators over the cl host API: the benchmark's span
// boundaries around calls into client.* or native.* (prefix names which).
// Only the objects whose methods cost time are wrapped — platform,
// context, queue, program; buffers, kernels and events pass through
// untouched, so the implementations' own type assertions keep working.
// Untraced runs never construct these.

type tracedPlatform struct {
	cl.Platform
	sc     *scope
	prefix string
}

// tracePlatform wraps plat when sc records; otherwise returns plat.
func tracePlatform(plat cl.Platform, sc *scope, prefix string) cl.Platform {
	if sc == nil {
		return plat
	}
	return &tracedPlatform{Platform: plat, sc: sc, prefix: prefix}
}

func (p *tracedPlatform) CreateContext(devices []cl.Device) (cl.Context, error) {
	defer p.sc.call(p.prefix + ".CreateContext")()
	ctx, err := p.Platform.CreateContext(devices)
	if err != nil {
		return nil, err
	}
	return &tracedContext{Context: ctx, sc: p.sc, prefix: p.prefix}, nil
}

type tracedContext struct {
	cl.Context
	sc     *scope
	prefix string
}

func (c *tracedContext) CreateQueue(d cl.Device) (cl.Queue, error) {
	defer c.sc.call(c.prefix + ".CreateQueue")()
	q, err := c.Context.CreateQueue(d)
	if err != nil {
		return nil, err
	}
	return &tracedQueue{Queue: q, sc: c.sc, prefix: c.prefix}, nil
}

func (c *tracedContext) CreateBuffer(flags cl.MemFlags, size int, host []byte) (cl.Buffer, error) {
	defer c.sc.call(c.prefix + ".CreateBuffer")()
	return c.Context.CreateBuffer(flags, size, host)
}

func (c *tracedContext) CreateProgramWithSource(src string) (cl.Program, error) {
	p, err := c.Context.CreateProgramWithSource(src)
	if err != nil {
		return nil, err
	}
	return &tracedProgram{Program: p, sc: c.sc, prefix: c.prefix}, nil
}

func (c *tracedContext) Release() error {
	defer c.sc.call(c.prefix + ".ReleaseContext")()
	return c.Context.Release()
}

type tracedProgram struct {
	cl.Program
	sc     *scope
	prefix string
}

func (p *tracedProgram) Build(devices []cl.Device, options string) error {
	defer p.sc.call(p.prefix + ".Build")()
	return p.Program.Build(devices, options)
}

func (p *tracedProgram) CreateKernel(name string) (cl.Kernel, error) {
	defer p.sc.call(p.prefix + ".CreateKernel")()
	return p.Program.CreateKernel(name)
}

type tracedQueue struct {
	cl.Queue
	sc     *scope
	prefix string
}

func (q *tracedQueue) EnqueueWriteBuffer(b cl.Buffer, blocking bool, offset int, data []byte, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueWriteBuffer")()
	return q.Queue.EnqueueWriteBuffer(b, blocking, offset, data, wait)
}

func (q *tracedQueue) EnqueueReadBuffer(b cl.Buffer, blocking bool, offset int, dst []byte, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueReadBuffer")()
	return q.Queue.EnqueueReadBuffer(b, blocking, offset, dst, wait)
}

func (q *tracedQueue) EnqueueCopyBuffer(src, dst cl.Buffer, srcOffset, dstOffset, size int, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueCopyBuffer")()
	return q.Queue.EnqueueCopyBuffer(src, dst, srcOffset, dstOffset, size, wait)
}

func (q *tracedQueue) EnqueueNDRangeKernel(k cl.Kernel, global, local []int, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueNDRangeKernel")()
	return q.Queue.EnqueueNDRangeKernel(k, global, local, wait)
}

func (q *tracedQueue) EnqueueNDRangeKernelWithOffset(k cl.Kernel, offset, global, local []int, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueNDRangeKernel")()
	return q.Queue.EnqueueNDRangeKernelWithOffset(k, offset, global, local, wait)
}

func (q *tracedQueue) Finalize() (cl.CommandBuffer, error) {
	defer q.sc.call(q.prefix + ".Finalize")()
	return q.Queue.Finalize()
}

func (q *tracedQueue) EnqueueCommandBuffer(cb cl.CommandBuffer, updates []cl.CommandUpdate, wait []cl.Event) (cl.Event, error) {
	defer q.sc.call(q.prefix + ".EnqueueCommandBuffer")()
	return q.Queue.EnqueueCommandBuffer(cb, updates, wait)
}

func (q *tracedQueue) Finish() error {
	defer q.sc.call(q.prefix + ".Finish")()
	return q.Queue.Finish()
}
