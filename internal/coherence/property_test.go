package coherence

// Randomized property test: the interval-keyed directory must agree,
// byte for byte, with a trivially-correct reference model that stores
// one state record per byte. The model encodes the documented transition
// semantics directly, so any divergence — split bookkeeping, merge
// over-coalescing, rollback splicing, lost-range accounting — shows up
// as a state mismatch at some byte.

import (
	"fmt"
	"math/rand"
	"testing"
)

const (
	propSize    = 96
	propHolders = 3
)

// mByte is the reference model's record for one byte.
type mByte struct {
	host     State
	st       [propHolders]State
	inb      [propHolders]Gate
	out      [propHolders]Gate // in-flight outbound read of the holder's copy
	lostFrom int               // holder index, -1 when not lost
	lostWas  State
	lostConn uint64
}

type model struct {
	bytes [propSize]mByte
}

func newModel() *model {
	m := &model{}
	for i := range m.bytes {
		m.bytes[i].host = Shared
		m.bytes[i].lostFrom = -1
	}
	return m
}

func (m *model) each(off, end int, f func(*mByte)) {
	for i := off; i < end; i++ {
		f(&m.bytes[i])
	}
}

func (m *model) claim(h int, off, end int) {
	m.each(off, end, func(b *mByte) {
		for o := range b.st {
			b.st[o] = Invalid
		}
		b.st[h] = Modified
		b.host = Invalid
		b.lostFrom = -1
	})
}

func (m *model) validate(h, off, end int) {
	m.each(off, end, func(b *mByte) { b.st[h] = Shared })
}

func (m *model) invalidate(h, off, end int) {
	m.each(off, end, func(b *mByte) {
		if b.st[h] == Shared {
			b.st[h] = Invalid
		}
	})
}

func (m *model) invalidateHost(off, end int) {
	m.each(off, end, func(b *mByte) { b.host = Invalid })
}

func (m *model) forceInvalidate(off, end int) {
	m.each(off, end, func(b *mByte) {
		b.host = Invalid
		for o := range b.st {
			b.st[o] = Invalid
		}
	})
}

func (m *model) validateHost(off, end int) {
	m.each(off, end, func(b *mByte) {
		for o := range b.st {
			if b.st[o] == Modified {
				b.st[o] = Shared
			}
		}
		b.host = Shared
	})
}

func (m *model) validateForward(src, dst, off, end int, gate, read Gate) {
	m.each(off, end, func(b *mByte) {
		if b.st[src] == Modified {
			b.st[src] = Shared
		}
		b.st[dst] = Shared
		b.inb[dst] = gate
		b.out[src] = read
	})
}

func (m *model) retireOutbound(src, off, end int, read Gate) {
	m.each(off, end, func(b *mByte) {
		if b.out[src] == read {
			b.out[src] = nil
		}
	})
}

func (m *model) settleForward(dst, off, end int, gate Gate, ok bool) {
	m.each(off, end, func(b *mByte) {
		if b.inb[dst] != gate {
			return
		}
		b.inb[dst] = nil
		if !ok && b.st[dst] == Shared {
			b.st[dst] = Invalid
		}
	})
}

func (m *model) disownInbound(h, off, end int) {
	m.each(off, end, func(b *mByte) { b.inb[h] = nil })
}

func (m *model) sweep(h int, conn uint64) {
	for i := range m.bytes {
		b := &m.bytes[i]
		had := b.st[h]
		b.st[h] = Invalid
		b.inb[h] = nil
		b.out[h] = nil
		if had != Shared && had != Modified {
			continue
		}
		survivor := b.host != Invalid
		for o := range b.st {
			if b.st[o] == Shared || b.st[o] == Modified {
				survivor = true
			}
		}
		if !survivor {
			b.lostFrom = h
			b.lostWas = had
			b.lostConn = conn
		}
	}
}

// dropFailed drops h's copy after a command on it failed: a byte whose
// last valid copy that was is Lost, with nothing to restore.
func (m *model) dropFailed(h, off, end int) {
	m.each(off, end, func(b *mByte) {
		had := b.st[h]
		b.st[h] = Invalid
		valid := b.host != Invalid
		for o := range b.st {
			valid = valid || b.st[o] != Invalid
		}
		if had != Invalid && !valid {
			b.lostFrom, b.lostWas, b.lostConn = h, Invalid, 0
		}
	})
}

func (m *model) restore(h int, conn uint64) {
	for i := range m.bytes {
		b := &m.bytes[i]
		if b.lostFrom == h && b.lostConn == conn && b.lostWas != Invalid {
			b.st[h] = b.lostWas
			b.lostFrom = -1
			b.lostWas = Invalid
			b.lostConn = 0
		}
	}
}

// compare checks every byte of the directory against the model.
func compare(t *testing.T, trial, step int, opName string, d *Dir, m *model, hs []*tHolder) {
	t.Helper()
	prevEnd := 0
	for _, r := range d.Regions(0, propSize) {
		if r.Off != prevEnd {
			t.Fatalf("trial %d step %d (%s): span gap at %d", trial, step, opName, prevEnd)
		}
		prevEnd = r.End
		for pos := r.Off; pos < r.End; pos++ {
			b := &m.bytes[pos]
			if r.Host != b.host {
				t.Fatalf("trial %d step %d (%s): byte %d host=%v, model %v\n%s",
					trial, step, opName, pos, r.Host, b.host, d.DebugString())
			}
			if r.Lost != (b.lostFrom >= 0) {
				t.Fatalf("trial %d step %d (%s): byte %d lost=%v, model %v",
					trial, step, opName, pos, r.Lost, b.lostFrom >= 0)
			}
			for hi, h := range hs {
				if got := r.Holders[h]; got != b.st[hi] {
					t.Fatalf("trial %d step %d (%s): byte %d holder %s=%v, model %v\n%s",
						trial, step, opName, pos, h.name, got, b.st[hi], d.DebugString())
				}
			}
		}
	}
	if prevEnd != propSize {
		t.Fatalf("trial %d step %d (%s): spans end at %d of %d", trial, step, opName, prevEnd, propSize)
	}
	// Inbound gates must agree wherever the model holds one.
	for hi, h := range hs {
		for pos := 0; pos < propSize; pos++ {
			want := m.bytes[pos].inb[hi]
			gs := d.InboundGates(h, pos, pos+1)
			switch {
			case want == nil && len(gs) != 0:
				t.Fatalf("trial %d step %d (%s): byte %d stray inbound gate for %s", trial, step, opName, pos, h.name)
			case want != nil && (len(gs) != 1 || gs[0] != want):
				t.Fatalf("trial %d step %d (%s): byte %d inbound gate mismatch for %s", trial, step, opName, pos, h.name)
			}
			// A writer waits on exactly the byte's inbound gate and the
			// in-flight outbound read of its copy.
			var wantW []Gate
			for _, g := range [2]Gate{want, m.bytes[pos].out[hi]} {
				if g != nil && !containsGate(wantW, g) {
					wantW = append(wantW, g)
				}
			}
			if gs := d.WriteGates(h, pos, pos+1); !sameGates(gs, wantW) {
				t.Fatalf("trial %d step %d (%s): byte %d write gates for %s = %v, model %v", trial, step, opName, pos, h.name, gs, wantW)
			}
		}
	}
}

// runTrial drives one fresh directory and its byte model through 80
// random transitions over ranges drawn from randRange, comparing after
// every step, and returns both for the caller's epilogue.
func runTrial(t *testing.T, rng *rand.Rand, trial int, randRange func() (int, int)) (*Dir, *model, []*tHolder) {
	t.Helper()
	hs := make([]*tHolder, propHolders)
	for i := range hs {
		hs[i] = &tHolder{name: fmt.Sprintf("h%d", i), alive: true}
	}
	d := New(uint64(trial), propSize, hs[0], hs[1], hs[2])
	m := newModel()
	var gates []*tGate
	var conn uint64
	newGate := func() *tGate {
		g := &tGate{name: fmt.Sprintf("g%d", len(gates)), settled: rng.Intn(2) == 0}
		gates = append(gates, g)
		return g
	}
	for step := 0; step < 80; step++ {
		// Randomly settle outstanding gates: merging behavior changes,
		// visible state must not.
		for _, g := range gates {
			if rng.Intn(4) == 0 {
				g.settled = true
			}
		}
		h := rng.Intn(propHolders)
		off, end := randRange()
		var opName string
		switch op := rng.Intn(13); op {
		case 0, 1: // claims are the most common transition
			opName = "claim"
			d.Claim(hs[h], off, end, newGate())
			m.claim(h, off, end)
		case 2:
			opName = "validate"
			d.Validate(hs[h], off, end)
			m.validate(h, off, end)
		case 3:
			opName = "invalidate"
			d.Invalidate(hs[h], off, end)
			m.invalidate(h, off, end)
		case 4:
			opName = "invalidateHost"
			d.InvalidateHost(off, end)
			m.invalidateHost(off, end)
		case 5:
			opName = "forceInvalidate"
			d.ForceInvalidate(off, end)
			m.forceInvalidate(off, end)
		case 6:
			opName = "validateHost"
			if d.ValidateHost(off, end, d.Generation()) {
				m.validateHost(off, end)
			} else {
				t.Fatalf("ValidateHost with a current generation refused")
			}
		case 7:
			opName = "forward"
			src := rng.Intn(propHolders)
			if src == h {
				continue
			}
			g, read := newGate(), newGate()
			d.ValidateForward(hs[src], hs[h], off, end, g, read)
			m.validateForward(src, h, off, end, g, read)
		case 8:
			opName = "settleForward"
			if len(gates) == 0 {
				continue
			}
			g := gates[rng.Intn(len(gates))]
			ok := rng.Intn(2) == 0
			d.SettleForward(hs[h], off, end, g, ok)
			m.settleForward(h, off, end, g, ok)
		case 9:
			opName = "disownInbound"
			d.DisownInbound(hs[h], off, end)
			m.disownInbound(h, off, end)
		case 10:
			opName = "retireOutbound"
			if len(gates) == 0 {
				continue
			}
			g := gates[rng.Intn(len(gates))]
			d.RetireOutbound(hs[h], off, end, g)
			m.retireOutbound(h, off, end, g)
		case 11:
			opName = "sweep"
			conn++
			hs[h].alive = false
			d.SweepServer(hs[h], conn)
			m.sweep(h, conn)
			hs[h].alive = true
			switch rng.Intn(3) {
			case 0:
				// Retained re-attach restores; wrong generation must not.
				want := conn
				if rng.Intn(4) == 0 {
					want = conn + 100
				}
				d.Restore(hs[h], want)
				m.restore(h, want)
				opName = "sweep+restore"
			case 1:
				// The re-attached connection dies before the restore runs,
				// and its sweep comes first: the restore of the earlier
				// connection's losses finds the holder dead and does nothing.
				conn++
				hs[h].alive = false
				d.SweepServer(hs[h], conn)
				m.sweep(h, conn)
				d.Restore(hs[h], conn-1)
				hs[h].alive = true
				opName = "sweep+resweep+restore"
			}
		case 12:
			// A claim whose holder dies, and the failed command's rollback
			// on either side of the sweep: after it, the rollback carries
			// the claim's now stale generation; before it, the holder is
			// dead. Either way it withdraws nothing and the sweep decides.
			opName = "claim+sweep+stale rollback"
			g := newGate()
			snap, gen := d.Claim(hs[h], off, end, g)
			m.claim(h, off, end)
			conn++
			hs[h].alive = false
			if rng.Intn(2) == 0 {
				opName = "claim+dead rollback+sweep"
				d.RollbackClaim(hs[h], g, off, end, gen, snap)
				d.SweepServer(hs[h], conn)
			} else {
				d.SweepServer(hs[h], conn)
				d.RollbackClaim(hs[h], g, off, end, gen, snap)
			}
			m.sweep(h, conn)
			hs[h].alive = true
		}
		compare(t, trial, step, opName, d, m, hs)
		compareInvariants(t, trial, step, opName, d, m, hs)
		// Span bookkeeping must stay bounded: boundaries only exist at
		// state changes, so there can never be more spans than bytes.
		if n := d.SpanCount(); n > propSize {
			t.Fatalf("trial %d step %d: %d spans for %d bytes", trial, step, n, propSize)
		}
	}
	return d, m, hs
}

// checkImmediateRollback claims [off, end) for a random holder and rolls
// the claim back with no interim mutation: the pre-claim state must come
// back with the claimer Invalid, and Lost where its copy was the last.
func checkImmediateRollback(t *testing.T, rng *rand.Rand, trial int, opName string, d *Dir, m *model, hs []*tHolder, off, end int) {
	t.Helper()
	h := rng.Intn(propHolders)
	g := &tGate{name: "rb"}
	snap, gen := d.Claim(hs[h], off, end, g)
	d.RollbackClaim(hs[h], g, off, end, gen, snap)
	m.dropFailed(h, off, end)
	compare(t, trial, 999, opName, d, m, hs)
	compareInvariants(t, trial, 999, opName, d, m, hs)
}

func TestDirectoryPropertyVsReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRange := func() (int, int) {
		off := rng.Intn(propSize)
		return off, off + 1 + rng.Intn(propSize-off)
	}
	for trial := 0; trial < 150; trial++ {
		d, m, hs := runTrial(t, rng, trial, randRange)
		off, end := randRange()
		checkImmediateRollback(t, rng, trial, "rollback", d, m, hs, off, end)
	}
}
