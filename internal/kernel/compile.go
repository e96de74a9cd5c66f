package kernel

import (
	"sync"
	"sync/atomic"
	"time"
)

// ArgKind describes how a kernel argument slot is bound at launch.
type ArgKind int

// Argument kinds.
const (
	ArgScalarInt ArgKind = iota
	ArgScalarFloat
	ArgGlobalBuf
	ArgLocalBuf
)

// ArgInfo describes one kernel parameter: how to bind it and, for buffer
// parameters, whether kernels may write through it. ReadOnly drives the
// dOpenCL MSI coherence protocol (const-qualified pointers never dirty the
// remote copy).
type ArgInfo struct {
	Name     string
	Kind     ArgKind
	Elem     Type // element type for buffer args
	ReadOnly bool
}

// Func is a compiled kernel function.
type Func struct {
	Name string
	Args []ArgInfo
	// HasBarrier reports that the kernel contains a barrier(), its own or
	// an inlined helper's: its groups run with one register file per item.
	HasBarrier bool

	raw    *WGFunc   // register IR as lowered by Compile, no passes run
	wgOnce sync.Once // guards plan
	plan   *WGFunc   // raw after the passes of opt.go, built on first use
}

// Program is a compiled MiniCL translation unit.
type Program struct {
	Funcs   []*Func // kernels in declaration order (helpers are inlined)
	Source  string
	kernels map[string]*Func
}

// Kernel returns the compiled kernel function with the given name.
func (p *Program) Kernel(name string) (*Func, bool) {
	f, ok := p.kernels[name]
	return f, ok
}

// KernelNames lists all kernel functions in declaration order.
func (p *Program) KernelNames() []string {
	names := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		names[i] = f.Name
	}
	return names
}

// Compile parses MiniCL source and lowers every kernel to the register IR
// (lower.go). Every call compiles: it is what Program.Build performs — in
// the native runtime, in remote daemons, in the client — the first time
// the process sees a text (Shared, cache.go). Everything the compiler
// refuses — syntax and type errors, recursion, kernels that inline past
// the depth or size caps — is refused here, with a position.
func Compile(src string) (*Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	u := &unit{decls: make(map[string]*FuncDecl, len(file.Funcs)), inlined: map[*FuncDecl]bool{}}
	for _, fn := range file.Funcs {
		if _, dup := u.decls[fn.Name]; dup {
			return nil, errAt(fn.Line, fn.Col, "function %s redefined", fn.Name)
		}
		if _, isBuiltin := builtinTable[fn.Name]; isBuiltin {
			return nil, errAt(fn.Line, fn.Col, "function %s shadows a builtin", fn.Name)
		}
		u.decls[fn.Name] = fn
	}
	prog := &Program{Source: src, kernels: map[string]*Func{}}
	for _, fn := range file.Funcs {
		if !fn.IsKernel {
			continue
		}
		f, err := u.lowerKernel(fn)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
		prog.kernels[f.Name] = f
	}
	// A helper is type-checked where it is inlined. One that no kernel
	// reaches is lowered on its own and the code dropped, so its errors
	// are reported all the same.
	for _, fn := range file.Funcs {
		if !fn.IsKernel && !u.inlined[fn] {
			if err := u.checkHelper(fn); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

var wgCompiles atomic.Uint64

// WorkGroupCompiles reports how many work-group compilations have run in
// this process. Tests use the delta to prove plans are cached and reused
// across graph replays, daemon chunks and sessions.
func WorkGroupCompiles() uint64 { return wgCompiles.Load() }

// WorkGroup returns the optimized plan of f, running the passes on first
// use. Safe for concurrent use.
func (p *Program) WorkGroup(f *Func) *WGFunc {
	f.wgOnce.Do(func() {
		f.plan = optimized(f.raw)
		wgCompiles.Add(1)
	})
	return f.plan
}

// Unoptimized returns f's plan as Compile lowered it, with no pass run:
// the reference the optimized plan must match bit for bit, and what a
// group runs on when a strength-reduced divisor turns out to be zero.
func (p *Program) Unoptimized(f *Func) *WGFunc { return f.raw }

// optimized runs the passes over a copy of raw.
func optimized(raw *WGFunc) *WGFunc {
	start := time.Now()
	plan := *raw
	plan.Code = append([]RInstr(nil), raw.Code...)
	b := &builder{
		numRegs:  int32(raw.NumRegs),
		consts:   append([]uint64(nil), raw.Consts...),
		constIdx: make(map[uint64]int32, len(raw.Consts)),
	}
	for i, c := range b.consts {
		b.constIdx[c] = int32(i)
	}
	plan.Info = WGCompileInfo{}
	plan.Runners = new(sync.Pool) // raw's runners are built for raw's registers
	optimize(b, &plan)
	plan.Consts = b.consts
	plan.NumRegs = int(b.numRegs)
	plan.Info.BodyInstrs = len(plan.Code)
	plan.Info.PrologueInstrs = len(plan.Prologue)
	plan.Info.Total = raw.Info.Total + time.Since(start)
	return &plan
}
