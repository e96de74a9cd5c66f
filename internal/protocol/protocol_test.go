package protocol

import (
	"testing"
	"testing/quick"

	"dopencl/internal/cl"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(200)
	w.U16(65500)
	w.U32(4000000000)
	w.U64(1 << 60)
	w.I32(-12345)
	w.I64(-1 << 50)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.String("hello dOpenCL")
	w.Blob([]byte{1, 2, 3})
	w.U64s([]uint64{9, 8, 7})
	w.Ints([]int{-1, 0, 1})
	w.Strings([]string{"a", "", "ccc"})

	r := NewReader(w.Bytes())
	if r.U8() != 200 || r.U16() != 65500 || r.U32() != 4000000000 || r.U64() != 1<<60 {
		t.Fatal("unsigned round trip failed")
	}
	if r.I32() != -12345 || r.I64() != -1<<50 {
		t.Fatal("signed round trip failed")
	}
	if r.F64() != 3.14159 {
		t.Fatal("float round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if r.String() != "hello dOpenCL" {
		t.Fatal("string round trip failed")
	}
	if b := r.Blob(); len(b) != 3 || b[2] != 3 {
		t.Fatal("blob round trip failed")
	}
	if v := r.U64s(); len(v) != 3 || v[0] != 9 {
		t.Fatal("u64s round trip failed")
	}
	if v := r.Ints(); len(v) != 3 || v[0] != -1 {
		t.Fatal("ints round trip failed")
	}
	if v := r.Strings(); len(v) != 3 || v[2] != "ccc" {
		t.Fatal("strings round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestForwardMessagesRoundTrip(t *testing.T) {
	fwd := ForwardBuffer{
		QueueID: 7, SrcBufID: 9, SrcOffset: 64, Size: 4096,
		PeerAddr: "nodeB/peer", PeerKey: 0x5eed, Token: 0xdeadbeefcafe, DstBufID: 9,
		DstOffset: 128, EventID: 42, FailID: 43, WaitIDs: []uint64{1, 2, 3},
	}
	w := NewWriter()
	PutForwardBuffer(w, fwd)
	r := NewReader(w.Bytes())
	got := GetForwardBuffer(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
	if got.QueueID != fwd.QueueID || got.SrcBufID != fwd.SrcBufID ||
		got.SrcOffset != fwd.SrcOffset || got.Size != fwd.Size ||
		got.PeerAddr != fwd.PeerAddr || got.PeerKey != fwd.PeerKey || got.Token != fwd.Token ||
		got.DstBufID != fwd.DstBufID || got.DstOffset != fwd.DstOffset ||
		got.EventID != fwd.EventID || got.FailID != fwd.FailID || len(got.WaitIDs) != 3 || got.WaitIDs[2] != 3 {
		t.Fatalf("forward round trip: %+v != %+v", got, fwd)
	}

	acc := AcceptForward{Token: 5, BufID: 6, Offset: 0, Size: 1 << 20, EventID: 11, QueueID: 12}
	w = NewWriter()
	PutAcceptForward(w, acc)
	r = NewReader(w.Bytes())
	if got := GetAcceptForward(r); r.Err() != nil || got != acc {
		t.Fatalf("accept round trip: %+v != %+v (err %v)", got, acc, r.Err())
	}

	tr := PeerTransfer{Key: 0x5eed, Token: 5, BufID: 6, Offset: 32, Size: 1 << 19, StreamID: 3}
	w = NewWriter()
	PutPeerTransfer(w, tr)
	r = NewReader(w.Bytes())
	if got := GetPeerTransfer(r); r.Err() != nil || got != tr {
		t.Fatalf("peer transfer round trip: %+v != %+v (err %v)", got, tr, r.Err())
	}
}

func TestForwardMessagesTruncated(t *testing.T) {
	// Every truncated prefix must surface ErrTruncated, never panic or
	// yield a silently short struct with Err() == nil.
	w := NewWriter()
	PutForwardBuffer(w, ForwardBuffer{PeerAddr: "x", WaitIDs: []uint64{1}})
	full := w.Bytes()
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n])
		_ = GetForwardBuffer(r)
		if r.Err() == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", n, len(full))
		}
	}
}

func TestTruncatedReadsAreSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32()
	if r.Err() != ErrTruncated {
		t.Fatalf("err = %v", r.Err())
	}
	// All subsequent reads return zero values without panicking.
	if r.U64() != 0 || r.String() != "" || r.Blob() != nil {
		t.Fatal("sticky error should yield zero values")
	}
}

func TestTruncatedContainers(t *testing.T) {
	// A declared length larger than the remaining bytes must error, not
	// allocate unbounded memory.
	w := NewWriter()
	w.U32(1 << 30)
	for _, read := range []func(*Reader){
		func(r *Reader) { _ = r.String() },
		func(r *Reader) { r.Blob() },
		func(r *Reader) { r.U64s() },
		func(r *Reader) { r.Ints() },
		func(r *Reader) { r.Strings() },
		func(r *Reader) { GetDeviceRecords(r) },
	} {
		r := NewReader(w.Bytes())
		read(r)
		if r.Err() == nil {
			t.Fatal("oversized container not rejected")
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	body := NewWriter()
	body.U64(42)
	body.String("payload")
	msg := EncodeEnvelope(ClassRequest, 77, MsgCreateBuffer, body)
	env, err := ParseEnvelope(msg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Class != ClassRequest || env.ID != 77 || env.Type != MsgCreateBuffer {
		t.Fatalf("envelope = %+v", env)
	}
	if env.Body.U64() != 42 || env.Body.String() != "payload" {
		t.Fatal("body corrupted")
	}
	if _, err := ParseEnvelope([]byte{1, 2}); err == nil {
		t.Fatal("short message accepted")
	}
}

func TestDeviceInfoRoundTrip(t *testing.T) {
	f := func(name, vendor string, units uint8, mem int64, exts []string) bool {
		in := cl.DeviceInfo{
			Name: name, Vendor: vendor, Type: cl.DeviceTypeGPU,
			ComputeUnits: int(units), ClockMHz: 1000,
			GlobalMemSize: mem, LocalMemSize: 32 << 10,
			MaxWorkGroupSize: 256, MaxAllocSize: mem / 4,
			Version: "OpenCL 1.1", Extensions: exts,
		}
		w := NewWriter()
		PutDeviceInfo(w, in)
		out := GetDeviceInfo(NewReader(w.Bytes()))
		if out.Name != in.Name || out.Vendor != in.Vendor ||
			out.ComputeUnits != in.ComputeUnits || out.GlobalMemSize != in.GlobalMemSize ||
			len(out.Extensions) != len(in.Extensions) {
			return false
		}
		for i := range in.Extensions {
			if out.Extensions[i] != in.Extensions[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceRecordsRoundTrip(t *testing.T) {
	recs := []DeviceRecord{
		{UnitID: 0, Info: cl.DeviceInfo{Name: "gpu0", Type: cl.DeviceTypeGPU}},
		{UnitID: 3, Info: cl.DeviceInfo{Name: "cpu1", Type: cl.DeviceTypeCPU, ComputeUnits: 12}},
	}
	w := NewWriter()
	PutDeviceRecords(w, recs)
	out := GetDeviceRecords(NewReader(w.Bytes()))
	if len(out) != 2 || out[1].UnitID != 3 || out[1].Info.Name != "cpu1" || out[1].Info.ComputeUnits != 12 {
		t.Fatalf("records = %+v", out)
	}
}

func TestDeviceRequestRoundTrip(t *testing.T) {
	in := DeviceRequest{
		Count: 2, Type: cl.DeviceTypeCPU, MinComputeUnits: 4,
		MinGlobalMem: 1 << 30, Vendor: "Intel", Name: "Xeon",
	}
	w := NewWriter()
	in.Put(w)
	out := GetDeviceRequest(NewReader(w.Bytes()))
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

// TestMsgTypeNames walks every declared message range (each const block
// ends in an unexported sentinel) and requires a unique name per type.
func TestMsgTypeNames(t *testing.T) {
	seen := map[string]MsgType{}
	for _, r := range []struct{ first, end MsgType }{
		{MsgHello, msgClientEnd},
		{MsgCompleted, msgNotifyEnd},
		{MsgDMRegisterServer, msgDMEnd},
		{MsgPeerHello, msgPeerEnd},
		{MsgServeOpen, msgServeEnd},
	} {
		if r.end <= r.first {
			t.Fatalf("empty range [%d, %d)", r.first, r.end)
		}
		for typ := r.first; typ < r.end; typ++ {
			name := typ.String()
			if name == "MsgType(?)" {
				t.Errorf("type %d has no name", typ)
				continue
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("types %d and %d share the name %q", prev, typ, name)
			}
			seen[name] = typ
		}
	}
	if len(seen) != len(msgNames)-countEmpty(msgNames[:]) {
		t.Errorf("%d names reachable from the declared ranges, table holds %d", len(seen), len(msgNames)-countEmpty(msgNames[:]))
	}
	if got := MsgType(0).String(); got != "MsgType(?)" {
		t.Errorf("MsgType(0) = %q", got)
	}
	if got := MsgType(60000).String(); got != "MsgType(?)" {
		t.Errorf("out-of-table type = %q", got)
	}
}

func countEmpty(names []string) int {
	n := 0
	for _, s := range names {
		if s == "" {
			n++
		}
	}
	return n
}
