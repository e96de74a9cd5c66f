package protocol

import (
	"bytes"
	"testing"
)

// TestCompletionRoundTrip: a success is the 12-byte event and status and
// nothing else; a failure round-trips every field.
func TestCompletionRoundTrip(t *testing.T) {
	for _, in := range []Completion{
		{EventID: 7, Status: 0},
		{EventID: 7, Status: -36, QueueID: 42, Op: MsgEnqueueKernel, Msg: "unknown queue or kernel"},
		{Status: -59, Op: MsgCreateBuffer, Msg: "no context"},
	} {
		w := NewWriter()
		PutCompletion(w, in)
		if in.Status >= 0 && len(w.Bytes()) != 12 {
			t.Fatalf("success body is %d bytes, want 12", len(w.Bytes()))
		}
		r := NewReader(w.Bytes())
		out := GetCompletion(r)
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if out != in {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	}
}

// TestTruncatedEnvelopePrefixes feeds every prefix of a valid message to
// the parser: short headers must be rejected, truncated bodies must decode
// to a sticky ErrTruncated, and nothing may panic.
func TestTruncatedEnvelopePrefixes(t *testing.T) {
	w := NewWriter()
	w.U64(123)
	w.String("payload")
	w.U64s([]uint64{1, 2, 3})
	msg := EncodeEnvelope(ClassOneWay, 0, MsgEnqueueMarker, w)
	for n := 0; n < len(msg); n++ {
		env, err := ParseEnvelope(msg[:n])
		if n < 7 {
			if err == nil {
				t.Fatalf("prefix %d: short header accepted", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %d: header rejected: %v", n, err)
		}
		_ = env.Body.U64()
		_ = env.Body.String()
		_ = env.Body.U64s()
		if env.Body.Err() == nil {
			t.Fatalf("prefix %d: truncated body decoded cleanly", n)
		}
	}
}

// FuzzEnvelopeParse throws arbitrary bytes at the envelope parser and the
// field readers: decoding must never panic and errors must be sticky.
func FuzzEnvelopeParse(f *testing.F) {
	w := NewWriter()
	w.U64(9)
	w.String("hello")
	w.Blob([]byte{1, 2, 3})
	w.U64s([]uint64{4, 5})
	f.Add(EncodeEnvelope(ClassRequest, 1, MsgEnqueueWrite, w))
	f.Add(EncodeEnvelope(ClassOneWay, 0, MsgEnqueueMarker, NewWriter()))
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 18, 0})
	sw := NewWriter()
	PutServeSubmit(sw, sampleServeSubmit())
	f.Add(EncodeEnvelope(ClassOneWay, 0, MsgServeSubmit, sw))
	rw := NewWriter()
	PutServeResults(rw, ServeResults{ServeID: 1, Results: []ServeResult{{JobID: 1, Output: []byte{1}}}})
	f.Add(EncodeEnvelope(ClassNotification, 0, MsgServeResult, rw))
	for _, c := range []Completion{{EventID: 3}, {EventID: 3, Status: -36, QueueID: 2, Op: MsgExecGraph, Msg: "graph 1 replay failed"}} {
		cw := NewWriter()
		PutCompletion(cw, c)
		f.Add(EncodeEnvelope(ClassNotification, 0, MsgCompleted, cw))
	}
	for _, form := range commandForms() {
		cw := NewWriter()
		form.put(cw)
		typ := MsgSetKernelArg
		if e, ok := form.in.(Enqueue); ok {
			typ = e.MsgType()
		}
		f.Add(EncodeEnvelope(ClassOneWay, 0, typ, cw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ParseEnvelope(data)
		if err != nil {
			return
		}
		r := env.Body
		_ = r.U8()
		_ = r.U16()
		_ = r.U32()
		_ = r.U64()
		_ = r.Bool()
		_ = r.String()
		_ = r.Blob()
		_ = r.U64s()
		_ = r.Ints()
		_ = r.Strings()
		_ = GetCompletion(r)
		if env2, err2 := ParseEnvelope(data); err2 == nil {
			_ = GetServeSubmit(env2.Body)
		}
		if env3, err3 := ParseEnvelope(data); err3 == nil {
			_ = GetServeResults(env3.Body)
		}
		for _, get := range []func(*Reader){
			func(r *Reader) { GetEnqueue(r) },
			func(r *Reader) { GetSetKernelArg(r) },
			func(r *Reader) { GetRegisterGraph(r) },
			func(r *Reader) { GetExecGraph(r) },
		} {
			if env4, err4 := ParseEnvelope(data); err4 == nil {
				get(env4.Body)
			}
		}
		if r.Err() != nil {
			// Errors must stay sticky: further reads return zero values.
			if got := r.U64(); got != 0 {
				t.Fatalf("read after error returned %d", got)
			}
		}
	})
}

// FuzzWriterReaderRoundTrip checks Writer/Reader symmetry: any combination
// of field values must decode to exactly what was encoded.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint16(2), uint32(3), uint64(4), int64(-5), 6.5, true, "s", []byte("blob"))
	f.Add(uint8(0), uint16(0), uint32(0), uint64(0), int64(0), 0.0, false, "", []byte{})
	f.Fuzz(func(t *testing.T, u8 uint8, u16 uint16, u32 uint32, u64 uint64, i64 int64, f64 float64, b bool, s string, blob []byte) {
		w := NewWriter()
		w.U8(u8)
		w.U16(u16)
		w.U32(u32)
		w.U64(u64)
		w.I64(i64)
		w.F64(f64)
		w.Bool(b)
		w.String(s)
		w.Blob(blob)
		w.U64s([]uint64{u64, u64 + 1})
		w.Strings([]string{s, "x"})

		env, err := ParseEnvelope(EncodeEnvelope(ClassResponse, u32, MsgType(u16), w))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if env.Class != ClassResponse || env.ID != u32 || env.Type != MsgType(u16) {
			t.Fatalf("envelope header corrupted: %+v", env)
		}
		r := env.Body
		if got := r.U8(); got != u8 {
			t.Fatalf("U8 = %d, want %d", got, u8)
		}
		if got := r.U16(); got != u16 {
			t.Fatalf("U16 = %d, want %d", got, u16)
		}
		if got := r.U32(); got != u32 {
			t.Fatalf("U32 = %d, want %d", got, u32)
		}
		if got := r.U64(); got != u64 {
			t.Fatalf("U64 = %d, want %d", got, u64)
		}
		if got := r.I64(); got != i64 {
			t.Fatalf("I64 = %d, want %d", got, i64)
		}
		if got := r.F64(); got != f64 && !(f64 != f64 && got != got) { // NaN-safe
			t.Fatalf("F64 = %v, want %v", got, f64)
		}
		if got := r.Bool(); got != b {
			t.Fatalf("Bool = %v, want %v", got, b)
		}
		if got := r.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		if got := r.Blob(); !bytes.Equal(got, blob) {
			t.Fatalf("Blob = %v, want %v", got, blob)
		}
		vs := r.U64s()
		if len(vs) != 2 || vs[0] != u64 || vs[1] != u64+1 {
			t.Fatalf("U64s = %v", vs)
		}
		ss := r.Strings()
		if len(ss) != 2 || ss[0] != s || ss[1] != "x" {
			t.Fatalf("Strings = %v", ss)
		}
		if r.Err() != nil {
			t.Fatalf("decode error: %v", r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left over", r.Remaining())
		}
	})
}
