package cl

import "fmt"

// ErrorCode mirrors the negative cl_int error codes of the OpenCL API.
type ErrorCode int32

// Error codes used across the runtime; values match the OpenCL headers.
const (
	Success                ErrorCode = 0
	DeviceNotFound         ErrorCode = -1
	DeviceNotAvailable     ErrorCode = -2
	CompilerNotAvailable   ErrorCode = -3
	MemObjectAllocFailure  ErrorCode = -4
	OutOfResources         ErrorCode = -5
	OutOfHostMemory        ErrorCode = -6
	BuildProgramFailure    ErrorCode = -11
	InvalidValue           ErrorCode = -30
	InvalidDeviceType      ErrorCode = -31
	InvalidPlatform        ErrorCode = -32
	InvalidDevice          ErrorCode = -33
	InvalidContext         ErrorCode = -34
	InvalidQueueProperties ErrorCode = -35
	InvalidCommandQueue    ErrorCode = -36
	InvalidMemObject       ErrorCode = -38
	InvalidProgram         ErrorCode = -44
	InvalidProgramExec     ErrorCode = -45
	InvalidKernelName      ErrorCode = -46
	InvalidKernel          ErrorCode = -48
	InvalidArgIndex        ErrorCode = -49
	InvalidArgValue        ErrorCode = -50
	InvalidArgSize         ErrorCode = -51
	InvalidKernelArgs      ErrorCode = -52
	InvalidWorkDimension   ErrorCode = -53
	InvalidWorkGroupSize   ErrorCode = -54
	InvalidWorkItemSize    ErrorCode = -55
	InvalidGlobalOffset    ErrorCode = -56
	InvalidEventWaitList   ErrorCode = -57
	InvalidEvent           ErrorCode = -58
	InvalidOperation       ErrorCode = -59
	InvalidBufferSize      ErrorCode = -61
	// InvalidCommandBuffer mirrors CL_INVALID_COMMAND_BUFFER_KHR from
	// cl_khr_command_buffer: a released, foreign or mis-targeted command
	// buffer, or an update naming a slot the recording does not have.
	InvalidCommandBuffer ErrorCode = -1138
	// InvalidServer is a dOpenCL extension code for server-related failures
	// (connection refused, authentication rejected, server gone).
	InvalidServer ErrorCode = -2001
	// ServerLost is a dOpenCL extension code: the server's connection died
	// (transport error, heartbeat timeout) while commands were in flight.
	// Every event of a command pipelined to the dead server fails with it,
	// and the queue's next Finish reports it. Recoverable: re-attach the
	// server (or route to a survivor) and retry.
	ServerLost ErrorCode = -2002
	// DataLost is a dOpenCL extension code: a buffer range's only valid
	// copy was lost. Reads of the range fail with this code until the
	// range is rewritten. The contents come back by themselves in one
	// case: the copy's daemon connection is down, and a re-attach finds
	// the daemon retained the session (Server.Reattach reports it). They
	// are unrecoverable when the daemon lost the session (a restart, the
	// retention window's expiry, the end of the lease) or when a failed
	// command dropped the copy.
	DataLost ErrorCode = -2003
	// Busy is a dOpenCL extension code: the serve-path admission control
	// rejected a job because the session's queue share is full. Unlike
	// ServerLost/DataLost nothing is broken — the caller should back off
	// and resubmit (or shed the request), which is the whole point of
	// bounding the queue instead of buffering unboundedly.
	Busy ErrorCode = -2004
)

var errorNames = map[ErrorCode]string{
	Success:                "CL_SUCCESS",
	DeviceNotFound:         "CL_DEVICE_NOT_FOUND",
	DeviceNotAvailable:     "CL_DEVICE_NOT_AVAILABLE",
	CompilerNotAvailable:   "CL_COMPILER_NOT_AVAILABLE",
	MemObjectAllocFailure:  "CL_MEM_OBJECT_ALLOCATION_FAILURE",
	OutOfResources:         "CL_OUT_OF_RESOURCES",
	OutOfHostMemory:        "CL_OUT_OF_HOST_MEMORY",
	BuildProgramFailure:    "CL_BUILD_PROGRAM_FAILURE",
	InvalidValue:           "CL_INVALID_VALUE",
	InvalidDeviceType:      "CL_INVALID_DEVICE_TYPE",
	InvalidPlatform:        "CL_INVALID_PLATFORM",
	InvalidDevice:          "CL_INVALID_DEVICE",
	InvalidContext:         "CL_INVALID_CONTEXT",
	InvalidQueueProperties: "CL_INVALID_QUEUE_PROPERTIES",
	InvalidCommandQueue:    "CL_INVALID_COMMAND_QUEUE",
	InvalidMemObject:       "CL_INVALID_MEM_OBJECT",
	InvalidProgram:         "CL_INVALID_PROGRAM",
	InvalidProgramExec:     "CL_INVALID_PROGRAM_EXECUTABLE",
	InvalidKernelName:      "CL_INVALID_KERNEL_NAME",
	InvalidKernel:          "CL_INVALID_KERNEL",
	InvalidArgIndex:        "CL_INVALID_ARG_INDEX",
	InvalidArgValue:        "CL_INVALID_ARG_VALUE",
	InvalidArgSize:         "CL_INVALID_ARG_SIZE",
	InvalidKernelArgs:      "CL_INVALID_KERNEL_ARGS",
	InvalidWorkDimension:   "CL_INVALID_WORK_DIMENSION",
	InvalidWorkGroupSize:   "CL_INVALID_WORK_GROUP_SIZE",
	InvalidWorkItemSize:    "CL_INVALID_WORK_ITEM_SIZE",
	InvalidGlobalOffset:    "CL_INVALID_GLOBAL_OFFSET",
	InvalidEventWaitList:   "CL_INVALID_EVENT_WAIT_LIST",
	InvalidEvent:           "CL_INVALID_EVENT",
	InvalidOperation:       "CL_INVALID_OPERATION",
	InvalidBufferSize:      "CL_INVALID_BUFFER_SIZE",
	InvalidCommandBuffer:   "CL_INVALID_COMMAND_BUFFER_KHR",
	InvalidServer:          "CL_INVALID_SERVER_WWU",
	ServerLost:             "CL_SERVER_LOST_WWU",
	DataLost:               "CL_DATA_LOST_WWU",
	Busy:                   "CL_BUSY_WWU",
}

// String returns the OpenCL constant name of the code.
func (c ErrorCode) String() string {
	if s, ok := errorNames[c]; ok {
		return s
	}
	return fmt.Sprintf("CL_ERROR(%d)", int32(c))
}

// Error makes a bare ErrorCode usable as an errors.Is target (and as a
// minimal sentinel error): errors.Is(err, cl.Busy) matches any *Error
// carrying the code, via (*Error).Is.
func (c ErrorCode) Error() string { return "cl: " + c.String() }

// Error is the error type returned throughout the runtime. It carries the
// OpenCL error code plus a human-readable context string.
type Error struct {
	Code ErrorCode
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Msg == "" {
		return "cl: " + e.Code.String()
	}
	return "cl: " + e.Code.String() + ": " + e.Msg
}

// Is matches a target ErrorCode (errors.Is(err, cl.Busy)) or another
// *Error with the same code; message text never participates.
func (e *Error) Is(target error) bool {
	switch t := target.(type) {
	case ErrorCode:
		return e.Code == t
	case *Error:
		return t != nil && e.Code == t.Code
	}
	return false
}

// Errf builds an *Error with a formatted message.
func Errf(code ErrorCode, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the ErrorCode from err, returning Success for nil and
// OutOfResources for foreign error types.
func CodeOf(err error) ErrorCode {
	if err == nil {
		return Success
	}
	if ce, ok := err.(*Error); ok {
		return ce.Code
	}
	if c, ok := err.(ErrorCode); ok {
		return c
	}
	return OutOfResources
}
