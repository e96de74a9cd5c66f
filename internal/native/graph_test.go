package native

import (
	"bytes"
	"testing"

	"dopencl/internal/cl"
)

// graphFixture builds a context, queue, two buffers and a built scale
// kernel on the test platform.
func graphFixture(t *testing.T) (cl.Context, cl.Queue, cl.Buffer, cl.Buffer, cl.Kernel) {
	t.Helper()
	p := testPlatform()
	devs, err := p.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := p.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void scale(global float* data, float f, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] * f; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	return ctx, q, a, b, k
}

// TestNativeGraphRecordReplay records write→kernel→copy→read and replays
// it twice, checking results and that recorded enqueues did not execute.
func TestNativeGraphRecordReplay(t *testing.T) {
	_, q, a, b, k := graphFixture(t)
	if err := k.SetArg(0, a); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, float32(2)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(4)); err != nil {
		t.Fatal(err)
	}

	input := f32bytes([]float32{1, 2, 3, 4})
	out := make([]byte, 16)
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	wev, err := q.EnqueueWriteBuffer(a, false, 0, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{4}, nil, []cl.Event{wev}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadBuffer(b, false, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if cb.NumCommands() != 4 {
		t.Fatalf("NumCommands = %d, want 4", cb.NumCommands())
	}
	// Nothing executed during recording.
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %d before replay", i, v)
		}
	}

	ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out), []float32{2, 4, 6, 8}; !f32Equal(got, want) {
		t.Fatalf("replay 1 out = %v, want %v", got, want)
	}

	// Second replay with updates: new payload, new scale factor, new dst.
	out2 := make([]byte, 16)
	ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
		cl.WriteDataUpdate(0, f32bytes([]float32{10, 20, 30, 40})),
		cl.KernelArgUpdate(1, 1, float32(3)),
		cl.ReadDstUpdate(3, out2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out2), []float32{30, 60, 90, 120}; !f32Equal(got, want) {
		t.Fatalf("replay 2 out = %v, want %v", got, want)
	}
	// Updates are persistent: a third replay without updates repeats them.
	out3 := make([]byte, 16)
	ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{cl.ReadDstUpdate(3, out3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, out3) {
		t.Fatalf("persistent updates: out3 = %v, want %v", bytesF32(out3), bytesF32(out2))
	}
}

// TestNativeGraphUpdatesReplaceSlots pins "replaced, never mutated":
// replay 1 waits on a user event while replay 2 is enqueued with a new
// write payload, scale factor and read destination; once the gate opens,
// replay 1 still runs with the values it was fired with.
func TestNativeGraphUpdatesReplaceSlots(t *testing.T) {
	_, q, a, b, k := graphFixture(t)
	for i, v := range []any{a, float32(2), int32(4)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	out1, out2 := make([]byte, 16), make([]byte, 16)
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(a, false, 0, f32bytes([]float32{1, 2, 3, 4}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{4}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadBuffer(b, false, 0, out1, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	gate := NewUserEvent()
	ev1, err := q.EnqueueCommandBuffer(cb, nil, []cl.Event{gate})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
		cl.WriteDataUpdate(0, f32bytes([]float32{10, 20, 30, 40})),
		cl.KernelArgUpdate(1, 1, float32(3)),
		cl.ReadDstUpdate(3, out2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []cl.Event{ev1, ev2} {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := bytesF32(out1), []float32{2, 4, 6, 8}; !f32Equal(got, want) {
		t.Errorf("replay 1 read %v, want %v", got, want)
	}
	if got, want := bytesF32(out2), []float32{30, 60, 90, 120}; !f32Equal(got, want) {
		t.Errorf("replay 2 read %v, want %v", got, want)
	}
}

func f32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNativeGraphRecordingRules pins the recording-state contract.
func TestNativeGraphRecordingRules(t *testing.T) {
	_, q, a, _, _ := graphFixture(t)
	if _, err := q.Finalize(); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("finalize without recording: %v", err)
	}
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	if err := q.BeginRecording(); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("double BeginRecording: %v", err)
	}
	// Blocking transfers, Flush and Finish are invalid while recording.
	if _, err := q.EnqueueWriteBuffer(a, true, 0, make([]byte, 16), nil); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("blocking write while recording: %v", err)
	}
	if err := q.Flush(); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("flush while recording: %v", err)
	}
	if err := q.Finish(); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("finish while recording: %v", err)
	}
	// Live events are rejected in recorded wait lists.
	ue := NewUserEvent()
	if _, err := q.EnqueueReadBuffer(a, false, 0, make([]byte, 16), []cl.Event{ue}); cl.CodeOf(err) != cl.InvalidEventWaitList {
		t.Fatalf("live event in recorded wait list: %v", err)
	}
	// Recorded placeholders cannot be waited on.
	rev, err := q.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Wait(); cl.CodeOf(err) != cl.InvalidOperation {
		t.Fatalf("wait on recorded event: %v", err)
	}
	// Empty after discarding: finalize with only the marker works, but an
	// empty recording does not.
	cb, err := q.Finalize()
	if err != nil || cb.NumCommands() != 1 {
		t.Fatalf("finalize: %v", err)
	}
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finalize(); cl.CodeOf(err) != cl.InvalidValue {
		t.Fatalf("empty finalize: %v", err)
	}
	// Replay on a foreign queue and after release fails.
	if err := cb.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCommandBuffer(cb, nil, nil); cl.CodeOf(err) != cl.InvalidCommandBuffer {
		t.Fatalf("replay released buffer: %v", err)
	}
}
