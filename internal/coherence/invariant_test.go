package coherence

// The directory's per-span invariants as a check that needs no model:
// every span holds at most one Modified copy, a Modified copy stands
// alone, and every byte is held by a live holder, cached on the host or
// Lost. The property tests run it after every step against the byte
// model's own verdict; the chaos harness runs the same rules over
// client.Buffer.RegionStates after every sweep and restore.

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
			dead = append(dead, !h.Alive())
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
func compareInvariants(t *testing.T, trial, step int, opName string, d *Dir, m *model, hs []*tHolder) {
	t.Helper()
	got, err := checkInvariants(d)
	if err != nil {
		t.Fatalf("trial %d step %d (%s): %v", trial, step, opName, err)
	}
	dead := make([]bool, len(hs))
	for i, h := range hs {
		dead[i] = !h.alive
	}
	for pos := range m.bytes {
		b := &m.bytes[pos]
		if want := verdict(b.host, b.st[:], dead, b.lostFrom >= 0); got[pos] != want {
			t.Fatalf("trial %d step %d (%s): byte %d: check says %q, model %q\n%s",
				trial, step, opName, pos, got[pos], want, d.DebugString())
		}
	}
}

// TestInvariantCheckHasTeeth: each violation is reported where it is.
func TestInvariantCheckHasTeeth(t *testing.T) {
	a := &tHolder{name: "A", alive: true}
	b := &tHolder{name: "B", alive: true}
	d := New(1, 64, a, b)
	requireInvariants(t, d, "fresh directory")
	d.Claim(a, 0, 16, &tGate{})
	d.Validate(b, 8, 16)      // Shared beside A's Modified copy
	d.ForceInvalidate(32, 48) // no copy anywhere
	a.alive = false           // A dies; its sweep has not run
	vs, err := checkInvariants(d)
	if err != nil {
		t.Fatal(err)
	}
	for pos, want := range map[int]string{0: vDeadHolder, 8: vDeadHolder, 20: vNone, 40: vUncovered} {
		if vs[pos] != want {
			t.Errorf("byte %d: %q, want %q", pos, vs[pos], want)
		}
	}
	a.alive = true
	vs, _ = checkInvariants(d)
	if vs[0] != vNone || vs[8] != vModifiedShared {
		t.Errorf("live A: byte 0 %q, byte 8 %q, want none and %q", vs[0], vs[8], vModifiedShared)
	}
}

// TestRestoreRacingSweep: a retained re-attach restores the claims lost
// with connection 1, but connection 2 died before the restore ran and its
// sweep came first. The restore must not re-install a claim on a holder
// that is dead again: the range stays Lost (held by nobody), in both
// orders.
func TestRestoreRacingSweep(t *testing.T) {
	for _, sweepFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("sweepFirst=%v", sweepFirst), func(t *testing.T) {
			a := &tHolder{name: "A", alive: true}
			b := &tHolder{name: "B", alive: true}
			d := New(1, 64, a, b)
			d.Claim(a, 0, 32, &tGate{settled: true})
			a.alive = false
			d.SweepServer(a, 1)
			requireInvariants(t, d, "after the first sweep")
			a.alive = true // re-attached as connection 2, which dies at once
			if sweepFirst {
				a.alive = false
				d.SweepServer(a, 2)
				d.Restore(a, 1)
			} else {
				d.Restore(a, 1)
				a.alive = false
				d.SweepServer(a, 2)
			}
			requireInvariants(t, d, "after restore and second sweep")
			if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
				t.Fatalf("LostRanges = %v, want [[0 32]]", lr)
			}
		})
	}
}

// TestRollbackOfTheOnlyCopyLeavesItLost: a command on the holder of a
// range's only copy fails. Its rollback drops that copy — the command may
// have written part of it — so the range is Lost, and a later restore of
// the holder does not bring it back. It used to be held by nobody and not
// Lost.
func TestRollbackOfTheOnlyCopyLeavesItLost(t *testing.T) {
	a := &tHolder{name: "A", alive: true}
	d := New(1, 64, a)
	d.Claim(a, 0, 32, &tGate{settled: true})
	g := &tGate{name: "w"}
	snap, gen := d.Claim(a, 0, 32, g)
	d.RollbackClaim(a, g, 0, 32, gen, snap)
	requireInvariants(t, d, "after the rollback")
	if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
		t.Fatalf("LostRanges = %v, want [[0 32]]", lr)
	}
	d.Restore(a, 0)
	if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
		t.Fatalf("after a restore: LostRanges = %v, want [[0 32]]", lr)
	}
}

// TestStaleClaimRollbackAroundSweep: a command's claim fails because its
// holder died, and the failure's rollback (carrying the claim's
// generation) races the sweep of that holder. Either order leaves every
// byte held, cached or Lost; the rollback after the sweep withdraws
// nothing, so it cannot resurrect the dead holder's claim, and a host
// validation from before the sweep is refused. When the dead holder's
// copy was the only one even before the claim, both orders record the
// same loss (a rollback before the sweep used to drop the copy unrecorded).
func TestStaleClaimRollbackAroundSweep(t *testing.T) {
	for _, sweepFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("onlyCopy/sweepFirst=%v", sweepFirst), func(t *testing.T) {
			a := &tHolder{name: "A", alive: true}
			d := New(1, 64, a)
			d.Claim(a, 0, 32, &tGate{settled: true})
			g := &tGate{name: "w"}
			snap, gen := d.Claim(a, 0, 32, g)
			a.alive = false
			if sweepFirst {
				d.SweepServer(a, 1)
				d.RollbackClaim(a, g, 0, 32, gen, snap)
			} else {
				d.RollbackClaim(a, g, 0, 32, gen, snap)
				d.SweepServer(a, 1)
			}
			requireInvariants(t, d, "after rollback and sweep")
			if lr := d.LostRanges(0, 64); len(lr) != 1 || lr[0] != [2]int{0, 32} {
				t.Fatalf("LostRanges = %v, want [[0 32]]", lr)
			}
		})
		t.Run(fmt.Sprintf("sweepFirst=%v", sweepFirst), func(t *testing.T) {
			a := &tHolder{name: "A", alive: true}
			b := &tHolder{name: "B", alive: true}
			d := New(1, 64, a, b)
			d.Claim(b, 32, 64, &tGate{settled: true})
			g := &tGate{name: "w"}
			staleGen := d.Generation()
			snap, gen := d.Claim(a, 16, 48, g)
			a.alive = false
			if sweepFirst {
				d.SweepServer(a, 1)
				d.RollbackClaim(a, g, 16, 48, gen, snap)
			} else {
				d.RollbackClaim(a, g, 16, 48, gen, snap)
				d.SweepServer(a, 1)
			}
			requireInvariants(t, d, "after rollback and sweep")
			if d.ValidateHost(0, 64, staleGen) {
				t.Fatal("host validation sampled before the sweep was accepted")
			}
			if got := holderAt(t, d, a, 20); got != Invalid {
				t.Fatalf("dead holder's failed claim survived: A=%v", got)
			}
		})
	}
}
