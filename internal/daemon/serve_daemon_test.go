package daemon

import (
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// TestServeMalformedFramesDropped: truncated or nonsensical serve frames
// must be logged and dropped without wedging the connection or crashing
// the daemon — a well-formed serve exchange afterwards still works, and
// every per-job failure comes back as a ServeResult status, never a
// completion notice.
func TestServeMalformedFramesDropped(t *testing.T) {
	d := testDaemon(t, false)
	rs := newGraphSession(t, d)
	defer rs.ep.Close()

	// Truncated one-way serve frames: empty bodies, cut-off job lists.
	rs.oneway(t, protocol.MsgServeSubmit, nil)
	rs.oneway(t, protocol.MsgServeClose, nil)
	rs.oneway(t, protocol.MsgServeSubmit, func(w *protocol.Writer) {
		w.U64(1)           // serve ID
		w.U32(0xffff_ffff) // job count the body cannot hold
	})
	// A structurally valid submit for a lane that was never opened.
	rs.oneway(t, protocol.MsgServeSubmit, func(w *protocol.Writer) {
		protocol.PutServeSubmit(w, protocol.ServeSubmit{
			ServeID: 99,
			Jobs:    []protocol.ServeJob{{JobID: 1, KernelID: 5, InputArg: -1, OutputArg: -1, Global: []int{1}}},
		})
	})
	// Closing an unknown lane is a no-op, not an error.
	rs.oneway(t, protocol.MsgServeClose, func(w *protocol.Writer) {
		protocol.PutServeClose(w, protocol.ServeClose{ServeID: 99})
	})

	// A truncated ServeOpen request answers with a failure response
	// instead of being silently dropped (requests always answer).
	env := rs.call(t, 1, protocol.MsgServeOpen, nil)
	if cl.ErrorCode(env.Body.I32()) == cl.Success {
		t.Fatal("truncated serve open accepted")
	}

	// The connection still serves a valid open + submit: an unknown
	// kernel comes back as a per-job error result on the lane.
	env = rs.call(t, 2, protocol.MsgServeOpen, func(w *protocol.Writer) {
		protocol.PutServeOpen(w, protocol.ServeOpen{ServeID: 7, Weight: 1, MaxPending: 8})
	})
	if cl.ErrorCode(env.Body.I32()) != cl.Success {
		t.Fatal("serve open failed after malformed frames")
	}
	rs.oneway(t, protocol.MsgServeSubmit, func(w *protocol.Writer) {
		protocol.PutServeSubmit(w, protocol.ServeSubmit{
			ServeID: 7,
			Jobs:    []protocol.ServeJob{{JobID: 42, KernelID: 12345, InputArg: -1, OutputArg: -1, Global: []int{1}}},
		})
	})
	select {
	case env := <-rs.notify:
		if env.Type != protocol.MsgServeResult {
			t.Fatalf("notification type = %v, want MsgServeResult", env.Type)
		}
		res := protocol.GetServeResults(env.Body)
		if env.Body.Err() != nil {
			t.Fatal(env.Body.Err())
		}
		if res.ServeID != 7 || len(res.Results) != 1 {
			t.Fatalf("results = %+v", res)
		}
		r := res.Results[0]
		if r.JobID != 42 || cl.ErrorCode(r.Status) != cl.InvalidKernel {
			t.Fatalf("result = %+v, want job 42 rejected with InvalidKernel", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no serve result after malformed frames")
	}
	select {
	case f := <-rs.done:
		t.Fatalf("a serve frame failed as %s", f.Op)
	default:
	}
}
