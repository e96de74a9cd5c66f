package kernel

import "testing"

// TestDCEOnePass feeds dce a chain of 10,000 instructions each of which is
// read only by the next, so that only the last is dead until it has gone:
// the pass must take the chain down with one count of the body, not one
// count per link.
func TestDCEOnePass(t *testing.T) {
	const links = 10000
	plan := &WGFunc{Fn: &Func{Name: "chain"}}
	for r := int32(1); r <= links; r++ {
		plan.Code = append(plan.Code, RInstr{Op: RAddI, D: r, A: r - 1, B: r - 1})
	}
	// A second chain hangs off a store and must stay.
	plan.Code = append(plan.Code,
		RInstr{Op: RAddI, D: links + 1, A: 0, B: 0},
		RInstr{Op: RMulI, D: links + 2, A: links + 1, B: links + 1},
		RInstr{Op: RStElem, A: 0, C: links + 2},
		RInstr{Op: REnd})
	o := &optimizer{b: &builder{numRegs: links + 3}, plan: plan}
	o.dce()
	if o.recounts != 1 {
		t.Errorf("dce counted the body %d times over a %d-link dead chain, want once", o.recounts, links)
	}
	if len(plan.Code) != 4 || plan.Code[0].D != links+1 || plan.Code[2].Op != RStElem {
		t.Errorf("dce left %d instructions, want the 4 of the live chain: %v", len(plan.Code), plan.Code[:min(len(plan.Code), 6)])
	}
	for r := int32(1); r <= links; r++ {
		if o.defs[r] != 0 || o.uses[r] != 0 {
			t.Fatalf("register %d: %d defs, %d uses after its chain went", r, o.defs[r], o.uses[r])
		}
	}
}
