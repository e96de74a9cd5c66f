package darray

import (
	"fmt"

	"dopencl/internal/kernel"
)

// InferHalo recovers a stencil kernel's halo widths from the loads on its
// input buffer as the compiler lowered them (kernel.Program.Loads): after
// inlining, so a tap read in a helper counts, and with every name resolved
// to a register, so a shadowed local cannot confuse it. Every index into
// in must have the affine form
//
//	gid + a*w + b - inBase
//
// and the displacement a*w + b is converted to rows of reach. A tap one
// row up (a = -1) needs one halo row above; a column neighbour (a = 0,
// b = ±1) can cross a row edge, so it also needs one row on that side;
// a*w + b combines both (b is taken to be less than a row). The result is
// the maximum reach over all taps.
//
// The kernel must follow the stencil convention: parameters
// (global float* out, const global float* in, int w, int h, int inBase,
// scalars...). An index of any other form — a value merged over control
// flow (advanced in a loop, reassigned under a branch), a modulo, a term
// in h — makes the radius statically unknowable: the error names the
// kernel and the load, and the caller must then pass an explicit Halo.
func InferHalo(src, kernelName string) (Halo, error) {
	prog, err := kernel.Shared(src)
	if err != nil {
		return Halo{}, err
	}
	fn, ok := prog.Kernel(kernelName)
	if !ok {
		return Halo{}, fmt.Errorf("darray: kernel %q not found", kernelName)
	}
	if err := checkStencilArgs(fn); err != nil {
		return Halo{}, err
	}
	const in, w, inBase = 1, 2, 4
	var halo Halo
	for n, ld := range prog.Loads(fn, in) {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("darray: kernel %q, load %d from %s (pc %d of the lowered plan): "+format+"; pass an explicit halo",
				append([]any{fn.Name, n + 1, fn.Args[in].Name, ld.PC}, args...)...)
		}
		x := ld.Index
		if x == nil {
			return Halo{}, bad("index is not affine in gid and the int arguments")
		}
		for i, c := range x.Args {
			if c != 0 && i != w && i != inBase {
				return Halo{}, bad("index has a term in %s", fn.Args[i].Name)
			}
		}
		if x.Gid != 1 || x.Args[inBase] != -1 {
			return Halo{}, bad("index must have the form gid + a*w + b - inBase (got gid*%d, inBase*%d)", x.Gid, x.Args[inBase])
		}
		// Reach below (towards row 0): -(a*w + b) cells. Row count is
		// w-independent: |a| rows, plus one if the column offset spills
		// past the row edge in the same direction.
		a, b := int(x.Args[w]), int(x.Const)
		halo.Lo = max(halo.Lo, -a+spill(-b))
		halo.Hi = max(halo.Hi, a+spill(b))
	}
	return halo, nil
}

// spill is 1 if a column displacement in the given direction can cross
// a row boundary (any nonzero offset in that direction), else 0.
func spill(b int) int {
	if b > 0 {
		return 1
	}
	return 0
}

// checkStencilArgs validates the stencil kernel convention.
func checkStencilArgs(fn *kernel.Func) error {
	p := fn.Args
	bad := func(msg string) error {
		return fmt.Errorf("darray: kernel %q does not follow the stencil convention (out, const in, int w, int h, int inBase, ...): %s", fn.Name, msg)
	}
	if len(p) < 5 {
		return bad(fmt.Sprintf("%d parameters", len(p)))
	}
	floats := func(a kernel.ArgInfo, readOnly bool) bool {
		return a.Kind == kernel.ArgGlobalBuf && a.Elem == kernel.TypeFloat && a.ReadOnly == readOnly
	}
	if !floats(p[0], false) {
		return bad("param 0 must be a non-const global float* output")
	}
	if !floats(p[1], true) {
		return bad("param 1 must be a const global float* input (the read-only coherence hint)")
	}
	for i := 2; i <= 4; i++ {
		if p[i].Kind != kernel.ArgScalarInt {
			return bad(fmt.Sprintf("param %d must be int", i))
		}
	}
	return nil
}
