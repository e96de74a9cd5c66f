package coherence

// Randomized property test: the interval-keyed directory must agree,
// byte for byte, with a trivially-correct reference model that stores
// one state record per byte. The model encodes the documented transition
// semantics directly, so any divergence — split bookkeeping, merge
// over-coalescing, rollback splicing, validity and loss derived from the
// holders' incarnations — shows up as a state mismatch at some byte.

import (
	"fmt"
	"math/rand"
	"testing"
)

const (
	propSize    = 96
	propHolders = 3
)

// mByte is the reference model's record for one byte: per holder the raw
// state of its copy, the incarnation it was stamped with (the connection
// its gates were recorded on, the epoch its state was set in) and its
// inbound and outbound gates, plus whether a failed command dropped the
// byte's last copy there.
type mByte struct {
	host   State
	st     [propHolders]State
	conn   [propHolders]uint64
	epoch  [propHolders]uint64
	failed [propHolders]bool
	inb    [propHolders]Gate
	out    [propHolders]Gate // in-flight outbound read of the holder's copy
}

// model is the per-byte reference: the bytes and, shared with the
// directory under test, the holders whose incarnations the derived views
// read.
type model struct {
	bytes [propSize]mByte
	hs    []*tHolder
}

func newModel(hs []*tHolder) *model {
	m := &model{hs: hs}
	for i := range m.bytes {
		m.bytes[i].host = Shared
	}
	return m
}

func (m *model) each(off, end int, f func(*mByte)) {
	for i := off; i < end; i++ {
		f(&m.bytes[i])
	}
}

// stamp readies holder h's record of b for a write: gates recorded on an
// earlier connection of h are dropped, and the record moves to h's
// current connection.
func (m *model) stamp(b *mByte, h int) {
	if inc := m.hs[h].Incarnation(); b.conn[h] != inc.Conn {
		b.inb[h], b.out[h] = nil, nil
		b.conn[h] = inc.Conn
	}
}

// hold sets h's copy of b to st, made in h's current epoch.
func (m *model) hold(b *mByte, h int, st State) {
	m.stamp(b, h)
	b.st[h] = st
	b.epoch[h] = m.hs[h].Incarnation().Epoch
}

// counts reports whether h's copy of b is valid now: its holder is up and
// still in the epoch the copy was made in.
func (m *model) counts(b *mByte, h int) bool {
	inc := m.hs[h].Incarnation()
	return b.st[h] != Invalid && inc.Up && b.epoch[h] == inc.Epoch
}

// state is what a read sees of h's copy of b.
func (m *model) state(b *mByte, h int) State {
	if m.counts(b, h) {
		return b.st[h]
	}
	return Invalid
}

// lost reports whether b has no valid copy but lost one: a copy whose
// holder went down or lost its daemon-side state, or the copy a failed
// command dropped.
func (m *model) lost(b *mByte) bool {
	if b.host != Invalid {
		return false
	}
	for h := range b.st {
		if m.counts(b, h) {
			return false
		}
	}
	for h := range b.st {
		if b.st[h] != Invalid || b.failed[h] {
			return true
		}
	}
	return false
}

// gate returns g, one of h's gates on b, while it gates: h is up and on
// the connection g was recorded on.
func (m *model) gate(b *mByte, h int, g Gate) Gate {
	if inc := m.hs[h].Incarnation(); !inc.Up || b.conn[h] != inc.Conn {
		return nil
	}
	return g
}

func (m *model) claim(h int, off, end int) {
	m.each(off, end, func(b *mByte) {
		for o := range b.st {
			b.st[o] = Invalid
			b.failed[o] = false
		}
		m.hold(b, h, Modified)
		b.host = Invalid
	})
}

func (m *model) validate(h, off, end int) {
	m.each(off, end, func(b *mByte) { m.hold(b, h, Shared) })
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
		m.hold(b, dst, Shared)
		b.inb[dst] = gate
		m.stamp(b, src)
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
	m.each(off, end, func(b *mByte) {
		if m.gate(b, h, b.inb[h]) != nil {
			b.inb[h] = nil
		}
	})
}

// dropFailed drops h's copy after a command on it failed: a byte where
// that was the last copy in any valid state, counting or not, is Lost
// until a write.
func (m *model) dropFailed(h, off, end int) {
	m.each(off, end, func(b *mByte) {
		had := b.st[h]
		b.st[h] = Invalid
		held := b.host != Invalid
		for o := range b.st {
			held = held || b.st[o] != Invalid
		}
		if had != Invalid && !held {
			b.failed[h] = true
		}
	})
}

// snapshot and restore copy the model's bytes whole (a claim's rollback
// with no mutation in between splices the pre-claim state back).
func (m *model) snapshot() [propSize]mByte { return m.bytes }

func (m *model) restore(s [propSize]mByte) { m.bytes = s }

// down, reattach and endEpoch change a holder's incarnation and nothing
// else: every view of the bytes is derived from it.
func (m *model) down(h int) { m.hs[h].down = true }

func (m *model) reattach(h int, retained bool) {
	m.hs[h].down = false
	m.hs[h].conn++
	if !retained {
		m.hs[h].epoch++
	}
}

func (m *model) endEpoch(h int) {
	m.hs[h].conn++
	m.hs[h].epoch++
}

// compare checks every byte of the directory against the model: what a
// read sees of every copy, whether the byte is Lost, and the gates a
// reader and a writer of each holder's copy wait on.
func compare(t *testing.T, trial, step int, opName string, d *Dir, m *model) {
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
			if r.Lost != m.lost(b) {
				t.Fatalf("trial %d step %d (%s): byte %d lost=%v, model %v\n%s",
					trial, step, opName, pos, r.Lost, m.lost(b), d.DebugString())
			}
			for hi, h := range m.hs {
				if got, want := r.Holders[h], m.state(b, hi); got != want {
					t.Fatalf("trial %d step %d (%s): byte %d holder %s=%v, model %v\n%s",
						trial, step, opName, pos, h.name, got, want, d.DebugString())
				}
			}
		}
	}
	if prevEnd != propSize {
		t.Fatalf("trial %d step %d (%s): spans end at %d of %d", trial, step, opName, prevEnd, propSize)
	}
	for hi, h := range m.hs {
		for pos := 0; pos < propSize; pos++ {
			b := &m.bytes[pos]
			want := m.gate(b, hi, b.inb[hi])
			gs := d.InboundGates(h, pos, pos+1)
			switch {
			case want == nil && len(gs) != 0:
				t.Fatalf("trial %d step %d (%s): byte %d stray inbound gate for %s", trial, step, opName, pos, h.name)
			case want != nil && (len(gs) != 1 || gs[0] != want):
				t.Fatalf("trial %d step %d (%s): byte %d inbound gate mismatch for %s", trial, step, opName, pos, h.name)
			}
			// A writer waits on exactly the byte's inbound gate and the
			// in-flight outbound read of its copy, where they still gate.
			var wantW []Gate
			for _, g := range [2]Gate{want, m.gate(b, hi, b.out[hi])} {
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
// every step, and returns both for the caller's epilogue. Holders go
// down, re-attach with or without their state and end their epoch in
// between, so every transition also runs against copies that stopped
// counting and gates recorded on an earlier connection.
func runTrial(t *testing.T, rng *rand.Rand, trial int, randRange func() (int, int)) (*Dir, *model) {
	t.Helper()
	hs := make([]*tHolder, propHolders)
	for i := range hs {
		hs[i] = &tHolder{name: fmt.Sprintf("h%d", i)}
	}
	d := New(uint64(trial), propSize, hs[0], hs[1], hs[2])
	m := newModel(hs)
	var gates []*tGate
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
			// The holder's incarnation moves; the directory is not told.
			switch {
			case hs[h].down:
				retained := rng.Intn(2) == 0
				opName = fmt.Sprintf("reattach(retained=%v)", retained)
				m.reattach(h, retained)
			case rng.Intn(4) == 0:
				opName = "endEpoch"
				m.endEpoch(h)
			default:
				opName = "down"
				m.down(h)
			}
		case 12:
			// A command the daemon reported failed: its claim's rollback
			// always applies, also when it runs after the holder went down
			// or re-attached.
			opName = "claim+rollback"
			g := newGate()
			before := m.snapshot()
			snap, gen := d.Claim(hs[h], off, end, g)
			m.claim(h, off, end)
			switch rng.Intn(3) {
			case 1:
				opName = "claim+down+rollback"
				m.down(h)
			case 2:
				retained := rng.Intn(2) == 0
				opName = fmt.Sprintf("claim+down+reattach(retained=%v)+rollback", retained)
				m.down(h)
				m.reattach(h, retained)
			}
			d.RollbackClaim(hs[h], g, off, end, gen, snap)
			m.restore(before)
			m.dropFailed(h, off, end)
		}
		compare(t, trial, step, opName, d, m)
		compareInvariants(t, trial, step, opName, d, m)
		// Span bookkeeping must stay bounded: boundaries only exist at
		// state changes, so there can never be more spans than bytes.
		if n := d.SpanCount(); n > propSize {
			t.Fatalf("trial %d step %d: %d spans for %d bytes", trial, step, n, propSize)
		}
	}
	return d, m
}

// checkImmediateRollback claims [off, end) for a random holder and rolls
// the claim back with no interim mutation: the pre-claim state must come
// back with the claimer Invalid, and Lost where its copy was the last.
func checkImmediateRollback(t *testing.T, rng *rand.Rand, trial int, opName string, d *Dir, m *model, off, end int) {
	t.Helper()
	h := rng.Intn(propHolders)
	g := &tGate{name: "rb"}
	snap, gen := d.Claim(m.hs[h], off, end, g)
	d.RollbackClaim(m.hs[h], g, off, end, gen, snap)
	m.dropFailed(h, off, end)
	compare(t, trial, 999, opName, d, m)
	compareInvariants(t, trial, 999, opName, d, m)
}

func TestDirectoryPropertyVsReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRange := func() (int, int) {
		off := rng.Intn(propSize)
		return off, off + 1 + rng.Intn(propSize-off)
	}
	for trial := 0; trial < 150; trial++ {
		d, m := runTrial(t, rng, trial, randRange)
		off, end := randRange()
		checkImmediateRollback(t, rng, trial, "rollback", d, m, off, end)
	}
}
