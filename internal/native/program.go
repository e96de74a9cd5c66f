package native

import (
	"math"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

// Program is a native program object holding MiniCL source and, after
// Build, the compiled kernels.
type Program struct {
	ctx *Context
	src string

	mu        sync.Mutex
	compiled  *kernel.Program
	buildLogs map[string]string
	built     bool
}

var _ cl.Program = (*Program)(nil)

// Source returns the program source.
func (p *Program) Source() string { return p.src }

// Build compiles the program, or finds it compiled: a process keeps one
// compiled program per source text (kernel.Shared), whoever built it
// first. The devices argument selects build targets (nil: every context
// device); the register IR is portable, so one compilation serves all, but
// status and logs are per device like in OpenCL. Options are ignored.
func (p *Program) Build(devices []cl.Device, options string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	targets := devices
	if targets == nil {
		targets = p.ctx.Devices()
	}
	prog, err := kernel.Shared(p.src)
	if err != nil {
		for _, d := range targets {
			p.buildLogs[d.Name()] = err.Error()
		}
		return cl.Errf(cl.BuildProgramFailure, "%s", err.Error())
	}
	for _, d := range targets {
		p.buildLogs[d.Name()] = "" // a clean build logs nothing
	}
	// Run the optimization passes over every kernel now, so the first
	// launch (and every graph replay and scheduler chunk after it) finds
	// a ready plan in the per-function cache instead of paying compile
	// latency inside a timed dispatch.
	for _, fn := range prog.Funcs {
		prog.WorkGroup(fn)
	}
	p.compiled = prog
	p.built = true
	return nil
}

// BuildLog returns the build log for the device.
func (p *Program) BuildLog(d cl.Device) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buildLogs[d.Name()]
}

// KernelNames lists kernels of the built program.
func (p *Program) KernelNames() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.built {
		return nil, cl.Errf(cl.InvalidProgramExec, "program not built")
	}
	return p.compiled.KernelNames(), nil
}

// CreateKernel instantiates the named kernel.
func (p *Program) CreateKernel(name string) (cl.Kernel, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.built {
		return nil, cl.Errf(cl.InvalidProgramExec, "program not built")
	}
	fn, ok := p.compiled.Kernel(name)
	if !ok {
		return nil, cl.Errf(cl.InvalidKernelName, "kernel %q not found", name)
	}
	return &Kernel{prog: p, fn: fn, args: make([]kernelArg, len(fn.Args))}, nil
}

// Release marks the program released.
func (p *Program) Release() error { return nil }

// Compiled exposes the compiled program (used by the daemon).
func (p *Program) Compiled() *kernel.Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compiled
}

// kernelArg is one bound kernel argument.
type kernelArg struct {
	set       bool
	scalar    uint64
	buf       *Buffer
	localSize int
}

// Kernel is a native kernel object.
type Kernel struct {
	prog *Program
	fn   *kernel.Func

	mu   sync.Mutex
	args []kernelArg
}

var _ cl.Kernel = (*Kernel)(nil)

// Name returns the kernel function name.
func (k *Kernel) Name() string { return k.fn.Name }

// NumArgs returns the number of kernel parameters.
func (k *Kernel) NumArgs() int { return len(k.fn.Args) }

// SetArg binds argument i.
func (k *Kernel) SetArg(i int, v any) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i < 0 || i >= len(k.fn.Args) {
		return cl.Errf(cl.InvalidArgIndex, "kernel %s has %d arguments", k.fn.Name, len(k.fn.Args))
	}
	info := k.fn.Args[i]
	switch info.Kind {
	case kernel.ArgScalarInt:
		iv, err := coerceInt(v)
		if err != nil {
			return cl.Errf(cl.InvalidArgValue, "argument %d of %s: %v", i, k.fn.Name, err)
		}
		k.args[i] = kernelArg{set: true, scalar: uint64(uint32(iv))}
	case kernel.ArgScalarFloat:
		fv, err := coerceFloat(v)
		if err != nil {
			return cl.Errf(cl.InvalidArgValue, "argument %d of %s: %v", i, k.fn.Name, err)
		}
		k.args[i] = kernelArg{set: true, scalar: uint64(math.Float32bits(fv))}
	case kernel.ArgGlobalBuf:
		b, ok := v.(*Buffer)
		if !ok {
			if cb, isCl := v.(cl.Buffer); isCl {
				if nb, isNative := cb.(*Buffer); isNative {
					b, ok = nb, true
				}
			}
		}
		if !ok {
			return cl.Errf(cl.InvalidArgValue, "argument %d of %s requires a buffer", i, k.fn.Name)
		}
		k.args[i] = kernelArg{set: true, buf: b}
	case kernel.ArgLocalBuf:
		ls, ok := v.(cl.LocalSpace)
		if !ok || ls.Size <= 0 {
			return cl.Errf(cl.InvalidArgSize, "argument %d of %s requires LocalSpace with positive size", i, k.fn.Name)
		}
		k.args[i] = kernelArg{set: true, localSize: ls.Size}
	}
	return nil
}

// SetRawArg binds a raw 64-bit slot image to scalar argument i. The
// dOpenCL daemon uses it to apply wire-transported scalar values without
// reinterpreting them.
func (k *Kernel) SetRawArg(i int, raw uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i < 0 || i >= len(k.fn.Args) {
		return cl.Errf(cl.InvalidArgIndex, "kernel %s has %d arguments", k.fn.Name, len(k.fn.Args))
	}
	kind := k.fn.Args[i].Kind
	if kind != kernel.ArgScalarInt && kind != kernel.ArgScalarFloat {
		return cl.Errf(cl.InvalidArgValue, "argument %d of %s is not scalar", i, k.fn.Name)
	}
	k.args[i] = kernelArg{set: true, scalar: raw}
	return nil
}

// snapshotArgs captures the current argument bindings for an enqueue
// (OpenCL captures argument values at enqueue time).
func (k *Kernel) snapshotArgs() ([]vm.Arg, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]vm.Arg, len(k.args))
	for i, a := range k.args {
		if !a.set {
			return nil, cl.Errf(cl.InvalidKernelArgs, "argument %d of %s not set", i, k.fn.Name)
		}
		switch k.fn.Args[i].Kind {
		case kernel.ArgScalarInt:
			out[i] = vm.Arg{Kind: kernel.ArgScalarInt, Scalar: a.scalar}
		case kernel.ArgScalarFloat:
			out[i] = vm.Arg{Kind: kernel.ArgScalarFloat, Scalar: a.scalar}
		case kernel.ArgGlobalBuf:
			out[i] = vm.GlobalArg(a.buf.data)
		case kernel.ArgLocalBuf:
			out[i] = vm.LocalArg(a.localSize)
		}
	}
	return out, nil
}

// Func exposes the compiled kernel function (the daemon's serve executor
// binds per-job arguments directly against it instead of mutating the
// shared kernel object's SetArg state).
func (k *Kernel) Func() *kernel.Func { return k.fn }

// Program returns the owning program object.
func (k *Kernel) Program() *Program { return k.prog }

// Release marks the kernel released.
func (k *Kernel) Release() error { return nil }

// coerceInt converts supported Go types to an int32 kernel argument.
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

// coerceFloat converts supported Go types to a float32 kernel argument.
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
