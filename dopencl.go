// Package dopencl is a Go reimplementation of dOpenCL (Kegel, Steuwer,
// Gorlatch: "dOpenCL: Towards a Uniform Programming Approach for
// Distributed Heterogeneous Multi-/Many-Core Systems", IPDPSW 2012):
// middleware that presents the OpenCL devices of a distributed system to
// an application as if they were installed locally.
//
// The facade re-exports the pieces a downstream user needs:
//
//   - the OpenCL-style API as type aliases (Context, Queue, Buffer,
//     Kernel, Event, CommandBuffer, DeviceType, MemFlags, ...), so host
//     code never has to import the internal cl package;
//   - the dOpenCL client driver (NewPlatform, server connections, device
//     manager leases);
//   - the daemon and device manager for the server side;
//   - the native single-node runtime (useful on its own and as the
//     substrate daemons forward to).
//
// A minimal distributed session:
//
//	nw := simnet.NewNetwork(simnet.Unlimited())      // or real TCP
//	// ... start daemons on nw (see examples/quickstart) ...
//	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial})
//	plat.ConnectServer("node0")
//	devs, _ := plat.Devices(cl.DeviceTypeAll)
//	ctx, _ := plat.CreateContext(devs)               // spans all servers
//	// ... standard OpenCL host code: buffers, programs, kernels, queues.
package dopencl

import (
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/darray"
	"dopencl/internal/device"
	"dopencl/internal/devmgr"
	"dopencl/internal/native"
	"dopencl/internal/sched"
	"dopencl/internal/serve"
)

// Version identifies this reimplementation.
const Version = "1.0.0"

// OpenCL-style API re-exports. Applications are written against these
// interfaces and run unchanged on the native single-node runtime or the
// distributed client driver (the paper's uniform programming model).
// CLPlatform is the interface both the dOpenCL Platform and the native
// runtime implement; the remaining names mirror their cl_* originals.
type (
	// CLPlatform mirrors cl_platform_id (implemented by Platform).
	CLPlatform = cl.Platform
	// Device mirrors cl_device_id.
	Device = cl.Device
	// Context mirrors cl_context.
	Context = cl.Context
	// Queue mirrors cl_command_queue, extended with the recorded
	// command-graph API (BeginRecording/Finalize/EnqueueCommandBuffer).
	Queue = cl.Queue
	// Buffer mirrors cl_mem for buffer objects.
	Buffer = cl.Buffer
	// Program mirrors cl_program.
	Program = cl.Program
	// Kernel mirrors cl_kernel.
	Kernel = cl.Kernel
	// Event mirrors cl_event.
	Event = cl.Event
	// UserEvent mirrors user events created via clCreateUserEvent.
	UserEvent = cl.UserEvent
	// CommandBuffer is a finalized command-graph recording (in the
	// spirit of cl_khr_command_buffer).
	CommandBuffer = cl.CommandBuffer
	// CommandUpdate patches a mutable slot of a recorded command.
	CommandUpdate = cl.CommandUpdate
	// DeviceType classifies compute devices (cl_device_type).
	DeviceType = cl.DeviceType
	// MemFlags describe buffer usage (cl_mem_flags).
	MemFlags = cl.MemFlags
	// CommandStatus is an event's execution status.
	CommandStatus = cl.CommandStatus
	// DeviceInfo carries the immutable properties of a device.
	DeviceInfo = cl.DeviceInfo
	// LocalSpace reserves work-group local memory for a kernel argument.
	LocalSpace = cl.LocalSpace
)

// Device type, memory flag and command status constants.
const (
	DeviceTypeCPU         = cl.DeviceTypeCPU
	DeviceTypeGPU         = cl.DeviceTypeGPU
	DeviceTypeAccelerator = cl.DeviceTypeAccelerator
	DeviceTypeAll         = cl.DeviceTypeAll

	MemReadWrite   = cl.MemReadWrite
	MemWriteOnly   = cl.MemWriteOnly
	MemReadOnly    = cl.MemReadOnly
	MemCopyHostPtr = cl.MemCopyHostPtr

	Complete = cl.Complete
)

// WaitForEvents blocks until all events have completed (clWaitForEvents).
func WaitForEvents(events []Event) error { return cl.WaitForEvents(events) }

// Data-parallel scheduler re-exports (internal/sched): split one
// ND-range launch across the devices of a lease, with the
// region-granular coherence directory stitching partitioned results.
type (
	// SchedLaunch describes one data-parallel 1-D ND-range.
	SchedLaunch = sched.Launch
	// SchedWorker is one device executor (queue + optional weight).
	SchedWorker = sched.Worker
	// SchedPart marks a kernel argument as partitioned per chunk.
	SchedPart = sched.Part
	// SchedReport is one worker's execution summary.
	SchedReport = sched.Report
	// SchedPolicy decides how the range is carved into chunks.
	SchedPolicy = sched.Policy
	// SchedStatic is the static proportional policy.
	SchedStatic = sched.Static
	// SchedDynamic is the chunk-stealing policy with throughput feedback.
	SchedDynamic = sched.Dynamic
)

// SchedRun executes a partitioned launch across the workers.
func SchedRun(l SchedLaunch, workers []SchedWorker, p SchedPolicy) ([]SchedReport, error) {
	return sched.Run(l, workers, p)
}

// KernelArgUpdate patches argument argIndex of the recorded kernel
// launch at index cmd on the next (and subsequent) replays.
func KernelArgUpdate(cmd, argIndex int, v any) CommandUpdate {
	return cl.KernelArgUpdate(cmd, argIndex, v)
}

// WriteDataUpdate replaces the payload of the recorded write at index
// cmd on the next (and subsequent) replays.
func WriteDataUpdate(cmd int, data []byte) CommandUpdate { return cl.WriteDataUpdate(cmd, data) }

// ReadDstUpdate redirects the recorded read at index cmd into dst.
func ReadDstUpdate(cmd int, dst []byte) CommandUpdate { return cl.ReadDstUpdate(cmd, dst) }

// Distributed-array re-exports (internal/darray): declare a global 2-D
// array and a row partition over the devices of a context; the runtime
// derives per-device owned regions as sub-buffers, infers halo widths
// from the stencil kernel's access pattern, exchanges halos as peer
// forwards overlapped with compute, and graph-replays the steady-state
// iteration (one delta frame per daemon per iteration).
type (
	// DArrayGrid is a row-partitioned 2-D problem domain.
	DArrayGrid = darray.Grid
	// DArray is one distributed float32 array on a grid.
	DArray = darray.Array
	// DArraySpan is one device's rows of a grid's partition (a contiguous
	// sched.Span).
	DArraySpan = sched.Span
	// DArrayHalo is a stencil's ghost-region width in rows.
	DArrayHalo = darray.Halo
	// DArrayLoop is a recorded ping-pong stencil iteration.
	DArrayLoop = darray.Loop
)

// NewDArrayGrid compiles src and row-partitions a w×h float32 domain
// across the devices (see darray.NewGrid).
func NewDArrayGrid(ctx Context, devices []Device, src string, w, h int) (*DArrayGrid, error) {
	return darray.NewGrid(ctx, devices, src, w, h)
}

// InferHalo recovers a stencil kernel's halo widths from its loads on
// the input buffer as compiled — helpers inlined, merged values refused
// (see darray.InferHalo).
func InferHalo(src, kernelName string) (DArrayHalo, error) {
	return darray.InferHalo(src, kernelName)
}

// Serve-plane re-exports (internal/serve + internal/client): the
// job-serving subsystem for many small concurrent jobs against shared
// precompiled programs. A ServeSession submits jobs that the daemon
// coalesces into batched dispatches, with content-addressed result
// caching on both ends and weighted fair queueing across tenants.
type (
	// ServeSession is an open serve lane to one daemon.
	ServeSession = client.ServeSession
	// ServeJob describes one submitted job (see client.JobSpec).
	ServeJob = client.JobSpec
	// ServeFuture resolves to a submitted job's result.
	ServeFuture = serve.Future
	// ServeResult is a completed job's output plus batching metadata.
	ServeResult = serve.Result
	// ServeCacheStats snapshots a result cache's counters.
	ServeCacheStats = serve.CacheStats
)

// Busy is the typed admission-control error (CL_BUSY_WWU): a serve
// submit was refused because the session's in-flight share is full.
// Match it with errors.Is(err, dopencl.Busy).
const Busy = cl.Busy

// OpenServe opens a serve session whose jobs run on dev. Weight is
// the session's relative share in the daemon's weighted fair queue
// (0 means 1); maxPending bounds in-flight jobs (0 means 256) — Submit
// beyond it returns Busy.
func OpenServe(ctx Context, dev Device, weight, maxPending int) (*ServeSession, error) {
	c, ok := ctx.(*client.Context)
	if !ok {
		return nil, cl.Errf(cl.InvalidContext, "context is not a dOpenCL client context")
	}
	return c.OpenServe(dev, weight, maxPending)
}

// Options configures the dOpenCL client driver (see client.Options).
type Options = client.Options

// Platform is the uniform dOpenCL platform (see client.Platform).
type Platform = client.Platform

// Server is a connected dOpenCL server handle (cl_server_WWU).
type Server = client.Server

// Lease is a device-manager assignment held by a client.
type Lease = client.Lease

// ManagerConfig is the parsed device-manager request configuration.
type ManagerConfig = client.ManagerConfig

// NewPlatform creates a dOpenCL client platform. Connect servers with
// ConnectServer, LoadServerConfig (Listing 2 format) or RequestFromManager
// (Listing 3 XML).
func NewPlatform(opts Options) *Platform { return client.NewPlatform(opts) }

// DaemonConfig configures a dOpenCL daemon.
type DaemonConfig = daemon.Config

// Daemon is the dOpenCL server process.
type Daemon = daemon.Daemon

// NewDaemon creates a daemon exposing a platform's devices over the
// network.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return daemon.New(cfg) }

// DeviceManager is the central device-assignment service of Section IV.
type DeviceManager = devmgr.Manager

// NewDeviceManager creates a device manager.
func NewDeviceManager(opts ...devmgr.Option) *DeviceManager { return devmgr.New(opts...) }

// NewNativePlatform builds a single-node OpenCL runtime with the given
// simulated devices: what a vendor OpenCL implementation is to a daemon.
func NewNativePlatform(name, vendor string, devices []device.Config) *native.Platform {
	return native.NewPlatform(name, vendor, devices)
}

// DeviceConfig describes a simulated device (see device.Config).
type DeviceConfig = device.Config
