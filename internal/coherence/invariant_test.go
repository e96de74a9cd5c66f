package coherence

// The directory's per-span invariants as a check that needs no model:
// every span holds at most one Modified copy, a Modified copy stands
// alone, and every byte is held by a live holder, cached on the host or
// Lost. The property tests run it after every step against the byte
// model's own verdict; the chaos harness runs the same rules over
// client.Buffer.RegionStates after every kill, re-attach and blip.

import (
	"fmt"
	"testing"
)

// Invariant violations, in the order a byte reports them.
const (
	vNone           = ""
	vTwoModified    = "two Modified copies"
	vModifiedShared = "a Modified copy beside a valid one"
	vDeadHolder     = "a valid copy on a dead holder"
	vUncovered      = "no valid copy and not Lost"
)

// verdict classifies one byte (or span) from its copies' states.
func verdict(host State, states []State, dead []bool, lost bool) string {
	modified, valid, live := 0, 0, false
	if host != Invalid {
		valid++
		live = true
		if host == Modified {
			modified++
		}
	}
	for i, st := range states {
		if st == Invalid {
			continue
		}
		if dead[i] {
			return vDeadHolder
		}
		valid++
		live = true
		if st == Modified {
			modified++
		}
	}
	switch {
	case modified > 1:
		return vTwoModified
	case modified == 1 && valid > 1:
		return vModifiedShared
	case !live && !lost:
		return vUncovered
	}
	return vNone
}

// checkInvariants returns, per byte of [0, size), the invariant the
// directory breaks there (vNone where it holds), and an error when the
// spans do not partition the buffer.
func checkInvariants(d *Dir) ([]string, error) {
	out := make([]string, d.size)
	pos := 0
	for _, r := range d.Regions(0, d.size) {
		if r.Off != pos || r.End <= r.Off {
			return nil, fmt.Errorf("spans do not partition the buffer at %d: [%d,%d)", pos, r.Off, r.End)
		}
		var states []State
		var dead []bool
		for h, st := range r.Holders {
			states = append(states, st)
			dead = append(dead, !incarnation(h).Up)
		}
		v := verdict(r.Host, states, dead, r.Lost)
		for i := r.Off; i < r.End; i++ {
			out[i] = v
		}
		pos = r.End
	}
	if pos != d.size {
		return nil, fmt.Errorf("spans end at %d of %d", pos, d.size)
	}
	return out, nil
}

// requireInvariants fails the test where the directory breaks any
// invariant.
func requireInvariants(t *testing.T, d *Dir, when string) {
	t.Helper()
	vs, err := checkInvariants(d)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	for pos, v := range vs {
		if v != vNone {
			t.Fatalf("%s: byte %d: %s\n%s", when, pos, v, d.DebugString())
		}
	}
}

// compareInvariants holds the check to the byte model: the unconstrained
// random walk reaches states production never does (Validate beside a
// Modified owner, ForceInvalidate), so the check must report exactly the
// bytes the model says break an invariant, and nothing else.
func compareInvariants(t *testing.T, trial, step int, opName string, d *Dir, m *model) {
	t.Helper()
	got, err := checkInvariants(d)
	if err != nil {
		t.Fatalf("trial %d step %d (%s): %v", trial, step, opName, err)
	}
	dead := make([]bool, len(m.hs))
	for i, h := range m.hs {
		dead[i] = h.down
	}
	var states [propHolders]State
	for pos := range m.bytes {
		b := &m.bytes[pos]
		for h := range states {
			states[h] = m.state(b, h)
		}
		if want := verdict(b.host, states[:], dead, m.lost(b)); got[pos] != want {
			t.Fatalf("trial %d step %d (%s): byte %d: check says %q, model %q\n%s",
				trial, step, opName, pos, got[pos], want, d.DebugString())
		}
	}
}

// TestInvariantCheckHasTeeth: each violation is reported where it is. A
// valid copy on a dead holder is one the directory cannot produce — what
// it reports is what a read sees, and a down holder's copy reads as
// Invalid — so that verdict is held to the rule alone.
func TestInvariantCheckHasTeeth(t *testing.T) {
	a := &tHolder{name: "A"}
	b := &tHolder{name: "B"}
	d := New(1, 64, a, b)
	requireInvariants(t, d, "fresh directory")
	d.Claim(a, 0, 16, &tGate{})
	d.Validate(b, 8, 16)      // Shared beside A's Modified copy
	d.ForceInvalidate(32, 48) // no copy anywhere
	vs, err := checkInvariants(d)
	if err != nil {
		t.Fatal(err)
	}
	for pos, want := range map[int]string{0: vNone, 8: vModifiedShared, 20: vNone, 40: vUncovered} {
		if vs[pos] != want {
			t.Errorf("byte %d: %q, want %q", pos, vs[pos], want)
		}
	}
	a.down = true // A's copies stop counting: byte 0 is Lost, byte 8 B's
	vs, _ = checkInvariants(d)
	if vs[0] != vNone || vs[8] != vNone {
		t.Errorf("A down: byte 0 %q, byte 8 %q, want none and none", vs[0], vs[8])
	}
	if v := verdict(Invalid, []State{Modified}, []bool{true}, false); v != vDeadHolder {
		t.Errorf("a Modified copy on a dead holder: %q, want %q", v, vDeadHolder)
	}
}

// TestRestoreRacingSweep: a retained re-attach brings back the copies of
// the connection that died, but the new connection dies too. The range is
// Lost again, held by nobody, until a re-attach that finds the state
// retained once more — and for good after one that does not. sweepFirst
// (the name is from when a sweep and a restore raced here) puts the second
// death before anything looked at the re-attached copies.
func TestRestoreRacingSweep(t *testing.T) {
	for _, sweepFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("sweepFirst=%v", sweepFirst), func(t *testing.T) {
			a := &tHolder{name: "A"}
			b := &tHolder{name: "B"}
			d := New(1, 64, a, b)
			d.Claim(a, 0, 32, &tGate{settled: true})
			lost := func(when string, want [][2]int) {
				t.Helper()
				requireInvariants(t, d, when)
				if lr := d.LostRanges(0, 64); len(lr) != len(want) || len(want) == 1 && lr[0] != want[0] {
					t.Fatalf("%s: LostRanges = %v, want %v", when, lr, want)
				}
			}
			a.down = true
			lost("after the first death", [][2]int{{0, 32}})
			a.down, a.conn = false, a.conn+1 // retained
			if !sweepFirst {
				lost("after the retained re-attach", nil)
			}
			a.down = true
			lost("after the second death", [][2]int{{0, 32}})
			a.down, a.conn = false, a.conn+1 // retained again
			lost("after the second retained re-attach", nil)
			a.down = true
			a.down, a.conn, a.epoch = false, a.conn+1, a.epoch+1 // not retained
			lost("after the unretained re-attach", [][2]int{{0, 32}})
			a.down = true
			a.down, a.conn = false, a.conn+1 // retained: the state kept is the empty one
			lost("after a later retained re-attach", [][2]int{{0, 32}})
		})
	}
}

// TestRollbackOfTheOnlyCopyLeavesItLost: a command on the holder of a
// range's only copy fails. Its rollback drops that copy — the command may
// have written part of it — so the range is Lost, and a later retained
// re-attach of the holder does not bring it back.
func TestRollbackOfTheOnlyCopyLeavesItLost(t *testing.T) {
	a := &tHolder{name: "A"}
	d := New(1, 64, a)
	d.Claim(a, 0, 32, &tGate{settled: true})
	g := &tGate{name: "w"}
	snap, gen := d.Claim(a, 0, 32, g)
	d.RollbackClaim(a, g, 0, 32, gen, snap)
	requireInvariants(t, d, "after the rollback")
	if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
		t.Fatalf("LostRanges = %v, want [[0 32]]", lr)
	}
	a.down = true
	a.down, a.conn = false, a.conn+1
	if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
		t.Fatalf("after a retained re-attach: LostRanges = %v, want [[0 32]]", lr)
	}
}

// TestStaleClaimRollbackAroundSweep: the daemon reported a command failed,
// and its rollback (carrying the claim's generation) runs before its
// holder dies, after (sweepFirst, named for the sweep that used to run at
// the death), or after the holder re-attached with its state. It always
// applies: every byte ends held, cached or Lost, the failed holder's claim
// is withdrawn — nothing brings it back — and where its copy was the only
// one even before the claim, the range stays Lost across the re-attach.
func TestStaleClaimRollbackAroundSweep(t *testing.T) {
	for _, when := range []string{"sweepFirst=false", "sweepFirst=true", "reattached"} {
		run := func(t *testing.T, a *tHolder, d *Dir, g *tGate, off, end int, gen uint64, snap Snapshot) {
			t.Helper()
			switch when {
			case "sweepFirst=false":
				d.RollbackClaim(a, g, off, end, gen, snap)
				a.down = true
			case "sweepFirst=true":
				a.down = true
				d.RollbackClaim(a, g, off, end, gen, snap)
			case "reattached":
				a.down = true
				a.down, a.conn = false, a.conn+1
				d.RollbackClaim(a, g, off, end, gen, snap)
			}
			requireInvariants(t, d, "after the rollback")
			a.down, a.conn = false, a.conn+1 // a retained re-attach
			requireInvariants(t, d, "after the re-attach")
		}
		t.Run("onlyCopy/"+when, func(t *testing.T) {
			a := &tHolder{name: "A"}
			d := New(1, 64, a)
			d.Claim(a, 0, 32, &tGate{settled: true})
			g := &tGate{name: "w"}
			snap, gen := d.Claim(a, 0, 32, g)
			run(t, a, d, g, 0, 32, gen, snap)
			if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
				t.Fatalf("LostRanges = %v, want [[0 32]]", lr)
			}
		})
		t.Run(when, func(t *testing.T) {
			a := &tHolder{name: "A"}
			b := &tHolder{name: "B"}
			d := New(1, 64, a, b)
			d.Claim(b, 32, 64, &tGate{settled: true})
			g := &tGate{name: "w"}
			staleGen := d.Generation()
			snap, gen := d.Claim(a, 16, 48, g)
			run(t, a, d, g, 16, 48, gen, snap)
			if d.ValidateHost(0, 64, staleGen) {
				t.Fatal("host validation sampled before the claim was accepted")
			}
			if got := holderAt(t, d, a, 20); got != Invalid {
				t.Fatalf("the failed claim survived: A=%v", got)
			}
			if got := holderAt(t, d, b, 40); got != Modified {
				t.Fatalf("B's copy under the failed claim: B=%v, want Modified", got)
			}
			if lr := d.LostRanges(0, 64); len(lr) != 0 {
				t.Fatalf("LostRanges = %v, want none", lr)
			}
		})
	}
}
