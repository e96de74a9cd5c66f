package daemon

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc/rpctest"
)

// A fuzz input is a sequence of frames, each class, type (two bytes),
// body length (one byte), body.
func appendFrame(data []byte, class uint8, typ protocol.MsgType, body []byte) []byte {
	data = append(data, class, byte(typ), byte(typ>>8), byte(len(body)))
	return append(data, body...)
}

func nextFrame(data []byte) (class uint8, typ protocol.MsgType, body, rest []byte, ok bool) {
	if len(data) < 4 {
		return 0, 0, nil, nil, false
	}
	class, typ = data[0], protocol.MsgType(data[1])|protocol.MsgType(data[2])<<8
	n := min(int(data[3]), len(data)-4)
	return class, typ, data[4 : 4+n], data[4+n:], true
}

// FuzzSession sends arbitrary frame sequences to a live session that holds
// one object of every kind: whatever arrives, the daemon does not panic,
// the session still answers afterwards, and once the connection is closed
// every goroutine the frames started is gone. Seeds: the samples of every
// row of the session's table, as one script and one by one.
func FuzzSession(f *testing.F) {
	samples := sessionSamples()
	var script []byte
	for _, sm := range samples {
		if len(sm.Body()) > 255 {
			f.Fatalf("%s sample does not fit a fuzz frame", sm.Type)
		}
		script = appendFrame(script, sm.Class, sm.Type, sm.Body())
		f.Add(appendFrame(nil, sm.Class, sm.Type, sm.Body()))
	}
	f.Add(script)
	// What the fuzzer has found, each once a leaked goroutine or worse.
	frames := func(sms ...rpctest.Sample) (data []byte) {
		for _, sm := range sms {
			data = appendFrame(data, sm.Class, sm.Type, sm.Body())
		}
		return data
	}
	row := func(typ protocol.MsgType, class uint8) rpctest.Sample {
		for _, sm := range samples {
			if sm.Type == typ && sm.Class == class {
				return sm
			}
		}
		f.Fatalf("no sample for %s in class %d", typ, class)
		return rpctest.Sample{}
	}
	req, one := protocol.ClassRequest, protocol.ClassOneWay
	parked := row(protocol.MsgEnqueueRead, one) // waits on user event 0
	// A user event released, or its ID taken over, with a command parked on it.
	f.Add(frames(parked, row(protocol.MsgReleaseEvent, one)))
	f.Add(frames(parked, row(protocol.MsgCreateUserEvent, req)))
	// A refused write draining the stream that a failed read then closes and
	// forgets: the drain used to wait on a stream no sweep would find again.
	aliased := func(class uint8, queue uint64, op uint8) rpctest.Sample {
		e := protocol.Enqueue{QueueID: queue, Cmd: protocol.GraphCommand{Op: op, Size: csSize, StreamID: 9}}
		return rpctest.Sample{Type: e.MsgType(), Class: class, Fill: func(w *protocol.Writer) { protocol.PutEnqueue(w, e) }}
	}
	f.Add(frames(aliased(req, 0, protocol.GraphOpWrite), aliased(one, 99, protocol.GraphOpRead)))
	createBuffer := func(class uint8, id, ctx uint64, size int64, stream uint32) rpctest.Sample {
		return rpctest.Sample{Type: protocol.MsgCreateBuffer, Class: class, Fill: func(w *protocol.Writer) {
			w.U64(id)
			w.U64(ctx)
			w.U32(uint32(cl.MemReadWrite | cl.MemCopyHostPtr))
			w.I64(size)
			w.U32(stream)
		}}
	}
	// A buffer of 2^62 bytes.
	f.Add(frames(createBuffer(one, 1, 0, 1<<62, 0)))
	// Creates announcing initial contents on a stream: the handler used to
	// wait for them on the dispatcher. Refused, and the stream nobody will
	// ever write is not waited on.
	f.Add(frames(createBuffer(one, 1, 0, csSize, 17), createBuffer(one, 2, 0, csSize, 19)))
	// The pipelined object plane: a create the daemon refuses (no such
	// context), then what a client that did not wait sends next — a write
	// to the buffer, a binding of it, a launch, a release of it — and
	// releases of IDs nothing was ever created under.
	named := func(typ protocol.MsgType, id uint64) rpctest.Sample {
		return rpctest.Sample{Type: typ, Class: one, Fill: func(w *protocol.Writer) { w.U64(id) }}
	}
	f.Add(frames(
		createBuffer(one, 5, 77, csSize, 0),
		rpctest.Sample{Type: protocol.MsgEnqueueWrite, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutEnqueue(w, protocol.Enqueue{Cmd: protocol.GraphCommand{Op: protocol.GraphOpWrite, BufID: 5, Size: csSize, StreamID: 21}})
		}},
		rpctest.Sample{Type: protocol.MsgSetKernelArg, Class: one, Fill: func(w *protocol.Writer) {
			protocol.PutSetKernelArg(w, protocol.SetKernelArg{Arg: protocol.GraphKernelArg{Kind: protocol.ArgValBuffer, Raw: 5}})
		}},
		row(protocol.MsgEnqueueKernel, one),
		named(protocol.MsgReleaseBuffer, 5),
		named(protocol.MsgReleaseProgram, 99), named(protocol.MsgReleaseQueue, 99), named(protocol.MsgReleaseContext, 99),
	))
	// One-way builds, and what a client that did not wait sends behind each:
	// of a program that exists, of one that does not, and of one whose source
	// does not compile (a client's own compiler would have refused it).
	program := func(id uint64, src string) rpctest.Sample {
		return rpctest.Sample{Type: protocol.MsgCreateProgram, Class: one, Fill: func(w *protocol.Writer) { w.U64(id); w.U64(0); w.String(src) }}
	}
	buildOf := func(id uint64) rpctest.Sample {
		return rpctest.Sample{Type: protocol.MsgBuildProgram, Class: one, Fill: func(w *protocol.Writer) { w.U64(id); w.String("") }}
	}
	kernelOf := func(prog uint64) rpctest.Sample {
		return rpctest.Sample{Type: protocol.MsgCreateKernel, Class: one, Fill: func(w *protocol.Writer) { w.U64(0); w.U64(prog); w.String("fill") }}
	}
	f.Add(frames(row(protocol.MsgBuildProgram, one), kernelOf(0), row(protocol.MsgEnqueueKernel, one)))
	f.Add(frames(buildOf(99), kernelOf(99), row(protocol.MsgEnqueueKernel, one)))
	f.Add(frames(program(7, "kernel void fill(global int* p) { p[0] = }"), buildOf(7), kernelOf(7), row(protocol.MsgEnqueueKernel, one)))
	// One-way creates under IDs that exist, a queue with commands behind it
	// among them.
	f.Add(frames(parked, row(protocol.MsgCreateQueue, one), row(protocol.MsgCreateContext, one),
		row(protocol.MsgCreateProgram, one), row(protocol.MsgCreateBuffer, one)))
	// A lease ended on a kept link with a command parked on a user event, and
	// the next lease bound to it one-way, creating and running behind its Hello.
	f.Add(frames(parked, row(protocol.MsgGoodbye, one), row(protocol.MsgHello, one),
		row(protocol.MsgCreateContext, one), row(protocol.MsgCreateQueue, one), row(protocol.MsgCreateBuffer, one),
		row(protocol.MsgCreateProgram, one), row(protocol.MsgBuildProgram, one), row(protocol.MsgCreateKernel, one),
		row(protocol.MsgEnqueueKernel, one), row(protocol.MsgGoodbye, one)))
	// A Hello resuming a session, on a session that holds objects: refused
	// at once, where it used to replace the session's tables.
	f.Add(frames(rpctest.Sample{Type: protocol.MsgHello, Class: req, Fill: func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "fuzz", Resume: 12345})
	}}, row(protocol.MsgEnqueueKernel, one)))
	// The object plane as re-attach recovery used to send it: requests of
	// types now served one-way only, each refused without acting.
	for _, typ := range []protocol.MsgType{protocol.MsgCreateContext, protocol.MsgCreateQueue, protocol.MsgCreateBuffer,
		protocol.MsgCreateProgram, protocol.MsgBuildProgram, protocol.MsgCreateKernel, protocol.MsgSetKernelArg,
		protocol.MsgSetUserEventStatus, protocol.MsgReleaseProgram, protocol.MsgReleaseBuffer, protocol.MsgReleaseQueue,
		protocol.MsgReleaseContext} {
		f.Add(appendFrame(nil, req, typ, row(typ, one).Body()))
	}

	// One daemon for all inputs: its serve dispatcher, started by the first
	// session's ServeOpen, lives as long as it does.
	var d *Daemon
	f.Fuzz(func(t *testing.T, data []byte) {
		if d == nil {
			d = testDaemon(t, false)
			warm, _ := sessionLink(t, d, samples)
			warm.EP.Close()
		}
		settle := func(what string, base int) {
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%s: %d goroutines, %d before the session:\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		}
		base := runtime.NumGoroutine()
		l, _ := sessionLink(t, d, samples)
		for {
			class, typ, body, rest, ok := nextFrame(data)
			if !ok {
				break
			}
			data = rest
			l.Send(t, class, 0, typ, body)
		}
		if st := l.Ask(t, 1, protocol.MsgGetServerInfo, nil); st != cl.Success {
			t.Fatalf("GetServerInfo after the frames: %v", st)
		}
		l.EP.Close()
		settle("after close", base)
	})
}
