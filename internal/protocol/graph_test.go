package protocol

import (
	"reflect"
	"testing"
)

// wireForm is one message body under test: how to encode a sample and
// decode it back.
type wireForm struct {
	name string
	in   any
	put  func(*Writer)
	get  func(*Reader) any
}

func sampleKernelCommand() GraphCommand {
	return GraphCommand{Op: GraphOpKernel, KernelID: 5,
		Args: []GraphKernelArg{
			{Kind: ArgValBuffer, Raw: 3},
			{Kind: ArgValScalar, Raw: 0x3f800000},
			{Kind: ArgValSubBuffer, Raw: 6, SubOrg: 128, SubLen: 512},
			{Kind: ArgValLocal, Local: 256},
		},
		GOffset: []int{32, 0}, Global: []int{64, 8}, Local: []int{8, 8}}
}

// commandForms is every wire form that carries a queue command or a
// kernel argument value: the graph registration and replay, the six
// eager enqueue bodies and the SetKernelArg binding.
func commandForms() []wireForm {
	reg := RegisterGraph{
		GraphID: 77,
		QueueID: 12,
		Commands: []GraphCommand{
			{Op: GraphOpWrite, BufID: 3, Offset: 64, Size: 4096, StreamID: 9},
			{Op: GraphOpRead, BufID: 4, Offset: 0, Size: 128},
			{Op: GraphOpCopy, SrcID: 3, DstID: 4, Offset: 8, DstOff: 16, Size: 100},
			sampleKernelCommand(),
			{Op: GraphOpMarker},
			{Op: GraphOpBarrier},
		},
	}
	exec := ExecGraph{
		GraphID:       77,
		QueueID:       12,
		EventID:       900,
		WaitIDs:       []uint64{1, 2, 3},
		ReadStreamIDs: []uint32{10, 11},
		Updates: []GraphUpdate{
			{Cmd: 3, Kind: GraphUpdateKernelArg, ArgIndex: 1,
				Arg: GraphKernelArg{Kind: ArgValScalar, Raw: 42}},
			{Cmd: 0, Kind: GraphUpdateWriteData, StreamID: 13,
				Encoding: GraphPayloadFull, PayloadLen: 4096},
			{Cmd: 1, Kind: GraphUpdateWriteData, StreamID: 14,
				Encoding: GraphPayloadDelta, PayloadLen: 96},
		},
	}
	forms := []wireForm{
		{"RegisterGraph", reg,
			func(w *Writer) { PutRegisterGraph(w, reg) },
			func(r *Reader) any { return GetRegisterGraph(r) }},
		{"ExecGraph", exec,
			func(w *Writer) { PutExecGraph(w, exec) },
			func(r *Reader) any { return GetExecGraph(r) }},
	}
	// An eager launch ships no argument snapshot.
	launch := sampleKernelCommand()
	launch.Args = nil
	for _, c := range []GraphCommand{
		{Op: GraphOpWrite, BufID: 3, Offset: 64, Size: 4096, StreamID: 9},
		{Op: GraphOpRead, BufID: 4, Offset: 8, Size: 128, StreamID: 11},
		{Op: GraphOpCopy, SrcID: 3, DstID: 4, Offset: 8, DstOff: 16, Size: 100},
		launch,
		{Op: GraphOpMarker},
		{Op: GraphOpBarrier},
	} {
		e := Enqueue{QueueID: 12, EventID: 901, WaitIDs: []uint64{7, 8}, Cmd: c}
		forms = append(forms, wireForm{e.MsgType().String(), e,
			func(w *Writer) { PutEnqueue(w, e) },
			func(r *Reader) any { return GetEnqueue(r) }})
	}
	for _, a := range sampleKernelCommand().Args {
		s := SetKernelArg{KernelID: 5, Index: 2, Arg: a}
		forms = append(forms, wireForm{"SetKernelArg", s,
			func(w *Writer) { PutSetKernelArg(w, s) },
			func(r *Reader) any { return GetSetKernelArg(r) }})
	}
	return forms
}

// nilEmpty normalizes what the wire cannot distinguish: Ints round-trips
// nil as empty.
func nilEmpty(v any) any {
	norm := func(c *GraphCommand) {
		for _, s := range []*[]int{&c.GOffset, &c.Global, &c.Local} {
			if len(*s) == 0 {
				*s = nil
			}
		}
	}
	switch m := v.(type) {
	case RegisterGraph:
		for i := range m.Commands {
			norm(&m.Commands[i])
		}
		return m
	case Enqueue:
		norm(&m.Cmd)
		return m
	}
	return v
}

func TestRegisterGraphRoundTrip(t *testing.T) {
	for _, f := range commandForms() {
		w := NewWriter()
		f.put(w)
		r := NewReader(w.Bytes())
		out := f.get(r)
		if r.Err() != nil {
			t.Fatalf("%s: decode: %v", f.name, r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%s: %d bytes left over", f.name, r.Remaining())
		}
		if out = nilEmpty(out); !reflect.DeepEqual(f.in, out) {
			t.Fatalf("%s round trip:\n in  %+v\n out %+v", f.name, f.in, out)
		}
	}
}

// TestEnqueueMsgTypes pins the op → message type mapping the eager frames
// rely on (the opcodes and the MsgEnqueue* types are declared in the same
// order).
func TestEnqueueMsgTypes(t *testing.T) {
	for op, want := range map[uint8]MsgType{
		GraphOpWrite: MsgEnqueueWrite, GraphOpRead: MsgEnqueueRead, GraphOpCopy: MsgEnqueueCopy,
		GraphOpKernel: MsgEnqueueKernel, GraphOpMarker: MsgEnqueueMarker, GraphOpBarrier: MsgEnqueueBarrier,
	} {
		if got := (Enqueue{Cmd: GraphCommand{Op: op}}).MsgType(); got != want {
			t.Errorf("op %d travels as %s, want %s", op, got, want)
		}
	}
}

// TestGraphMessagesTruncated: every truncated prefix must fail cleanly
// (sticky reader error), never panic or mis-decode; so must bogus
// opcodes and negative or huge counts.
func TestGraphMessagesTruncated(t *testing.T) {
	for _, f := range commandForms() {
		w := NewWriter()
		f.put(w)
		full := w.Bytes()
		for n := 0; n < len(full); n++ {
			r := NewReader(full[:n])
			f.get(r)
			if r.Err() == nil {
				t.Fatalf("%s truncated at %d/%d decoded without error", f.name, n, len(full))
			}
		}
	}

	header := func(w *Writer) { // Enqueue routing header
		w.U64(2)
		w.U64(3)
		w.U64s(nil)
	}
	for _, bad := range []struct {
		name string
		put  func(*Writer)
		get  func(*Reader) any
	}{
		{"unknown op in a registration", func(w *Writer) {
			w.U64(1)
			w.U64(2)
			w.U32(1)
			w.U8(99)
		}, func(r *Reader) any { return GetRegisterGraph(r) }},
		{"unknown op in an eager frame", func(w *Writer) {
			header(w)
			w.U8(0)
		}, func(r *Reader) any { return GetEnqueue(r) }},
		{"huge command count", func(w *Writer) {
			w.U64(1)
			w.U64(2)
			w.I32(-1)
		}, func(r *Reader) any { return GetRegisterGraph(r) }},
		{"huge snapshot count", func(w *Writer) {
			w.U64(1)
			w.U64(2)
			w.U32(1)
			PutGraphCommand(w, GraphCommand{Op: GraphOpKernel, KernelID: 5, Global: []int{4}})
			w.I32(-1)
		}, func(r *Reader) any { return GetRegisterGraph(r) }},
		{"huge wait list", func(w *Writer) {
			w.U64(2)
			w.U64(3)
			w.U32(1 << 30)
		}, func(r *Reader) any { return GetEnqueue(r) }},
		{"huge launch dimensions", func(w *Writer) {
			header(w)
			w.U8(GraphOpKernel)
			w.U64(5)
			w.I32(-1)
		}, func(r *Reader) any { return GetEnqueue(r) }},
		{"unknown update kind", func(w *Writer) {
			w.U64(1)
			w.U64(2)
			w.U64(3)
			w.U64s(nil)
			w.U32(0) // no read streams
			w.U32(1) // one update
			w.U32(0)
			w.U8(99)
		}, func(r *Reader) any { return GetExecGraph(r) }},
	} {
		w := NewWriter()
		bad.put(w)
		r := NewReader(w.Bytes())
		bad.get(r)
		if r.Err() == nil {
			t.Errorf("%s decoded without error", bad.name)
		}
	}

	// Sizes are data, not lengths: a negative or huge one decodes as
	// written and is the daemon's to refuse against the buffer.
	for _, size := range []int64{-8, 1 << 62} {
		w := NewWriter()
		PutEnqueue(w, Enqueue{QueueID: 2, Cmd: GraphCommand{Op: GraphOpCopy, SrcID: 3, DstID: 4, Offset: 8, DstOff: 8, Size: size}})
		r := NewReader(w.Bytes())
		if e := GetEnqueue(r); r.Err() != nil || e.Cmd.Size != size {
			t.Errorf("copy size %d decoded as %d (err %v)", size, e.Cmd.Size, r.Err())
		}
	}
}
