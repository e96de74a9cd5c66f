// Package protocol defines the dOpenCL wire protocol spoken between the
// client driver, the daemons and the device manager.
//
// Four message classes exist (Section III-B of the paper, plus the
// one-way mode of the asynchronous command path):
//
//   - requests   (client → daemon, daemon → device manager, ...)
//   - responses  (carrying a cl status code plus result fields)
//   - notifications (unsolicited, e.g. event status changes)
//   - one-way requests (never answered; see ClassOneWay)
//
// Which class each message travels in is stated by the receive tables of
// the roles, one rpc.Routes literal each, and nowhere else: in
// internal/daemon a client session ((*session).routes), the manager link
// ((*Daemon).managerRoutes) and the peer link ((*peerSession).routes); in
// internal/devmgr the manager ((*Manager).routes); in internal/client the
// daemon link ((*Server).routes) and the manager link
// ((*Platform).managerRoutes). A frame no table serves gets one treatment
// everywhere (rpc.Call.Refuse).
//
// Frames are built, parsed and dispatched in one place, internal/rpc; the
// roles above it deal in types and bodies.
//
// Bodies are hand-encoded little-endian binary: messages stay small (bulk
// data travels on gcf streams), and the encoding adds near-zero overhead,
// which matters for the transfer-efficiency experiment (Fig. 8).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Writer accumulates a little-endian binary message body.
type Writer struct {
	buf  []byte
	body int // start of the body in buf: envelopeLen in a frame writer, else 0
}

// NewWriter returns a writer with a small preallocated buffer.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 64)} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf[w.body:] }

// envelopeLen is the size of the envelope ahead of a body: class, ID, type.
const envelopeLen = 7

// maxPooledFrame bounds the frame writers the pool keeps: a rare large
// body is left to the collector rather than pinned for every later send.
const maxPooledFrame = 64 << 10

var frames = sync.Pool{New: func() any {
	return &Writer{buf: make([]byte, envelopeLen, 256), body: envelopeLen}
}}

// NewFrame returns a pooled writer with the envelope's bytes reserved ahead
// of the body, so that a message is encoded once: the body is written in
// place and Seal fills the envelope in front of it. Hand it back with
// PutFrame once the sealed frame has been copied out.
func NewFrame() *Writer { return frames.Get().(*Writer) }

// Seal writes the envelope into a frame writer's reserved bytes and returns
// the whole frame, valid until PutFrame.
func (w *Writer) Seal(class uint8, id uint32, typ MsgType) []byte {
	putEnvelope(w.buf[:envelopeLen], class, id, typ)
	return w.buf
}

// PutFrame returns a frame writer from NewFrame to the pool.
func PutFrame(w *Writer) {
	if cap(w.buf) > maxPooledFrame {
		return
	}
	w.buf = w.buf[:envelopeLen]
	frames.Put(w)
}

// U8 appends an unsigned 8-bit value.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends an unsigned 16-bit value.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends an unsigned 32-bit value.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends an unsigned 64-bit value.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I32 appends a signed 32-bit value.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends length-prefixed raw bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// U64s appends a length-prefixed slice of 64-bit values.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Ints appends a length-prefixed slice of ints as 64-bit values.
func (w *Writer) Ints(vs []int) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// Strings appends a length-prefixed slice of strings.
func (w *Writer) Strings(vs []string) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.String(v)
	}
}

// ErrTruncated reports a message body shorter than its declared fields.
var ErrTruncated = errors.New("protocol: truncated message")

// Reader decodes a binary message body. Errors are sticky: after the
// first failure all reads return zero values and Err reports the cause.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps a message body.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads an unsigned 8-bit value.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads an unsigned 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads an unsigned 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a signed 32-bit value.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return ""
	}
	return string(r.take(n))
}

// Blob reads length-prefixed raw bytes (aliasing the message buffer).
func (r *Reader) Blob() []byte {
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	return r.take(n)
}

// U64s reads a length-prefixed slice of 64-bit values.
func (r *Reader) U64s() []uint64 {
	n := int(r.U32())
	if n*8 > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// Ints reads a length-prefixed slice of ints.
func (r *Reader) Ints() []int {
	n := int(r.U32())
	if n*8 > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64())
	}
	return out
}

// Strings reads a length-prefixed slice of strings.
func (r *Reader) Strings() []string {
	n := int(r.U32())
	if n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// Message classes.
//
// ClassOneWay is the fire-and-forget request mode of the asynchronous
// command path (Section III-B): the sender does not wait for — and the
// receiver never synthesizes — a response. Success is silent but for a
// command's event; failures travel back asynchronously in the one
// completion notice, MsgCompleted, keyed by the command's queue and event
// IDs. This is what lets N non-blocking enqueues cost ~1 RTT instead of N
// RTTs. Object lifecycle travels the same way — the client assigns the
// IDs, so a create or release has nothing to wait for — and its failures
// name queue 0 and event 0.
const (
	ClassRequest      = uint8(0)
	ClassResponse     = uint8(1)
	ClassNotification = uint8(2)
	ClassOneWay       = uint8(3)
)

// Envelope is a parsed message header plus a reader over its body.
type Envelope struct {
	Class uint8
	ID    uint32 // request ID (response correlation); 0 for notifications
	Type  MsgType
	Body  *Reader
}

// EncodeEnvelope frames a message: class, ID, type, body.
func EncodeEnvelope(class uint8, id uint32, typ MsgType, body *Writer) []byte {
	b := body.Bytes()
	out := make([]byte, envelopeLen+len(b))
	putEnvelope(out, class, id, typ)
	copy(out[envelopeLen:], b)
	return out
}

// putEnvelope writes the envelope into hdr[:envelopeLen].
func putEnvelope(hdr []byte, class uint8, id uint32, typ MsgType) {
	hdr[0] = class
	binary.LittleEndian.PutUint32(hdr[1:5], id)
	binary.LittleEndian.PutUint16(hdr[5:7], uint16(typ))
}

// ParseEnvelope splits a raw message into its envelope.
func ParseEnvelope(msg []byte) (Envelope, error) {
	if len(msg) < envelopeLen {
		return Envelope{}, fmt.Errorf("protocol: short message (%d bytes)", len(msg))
	}
	return Envelope{
		Class: msg[0],
		ID:    binary.LittleEndian.Uint32(msg[1:5]),
		Type:  MsgType(binary.LittleEndian.Uint16(msg[5:7])),
		Body:  NewReader(msg[envelopeLen:]),
	}, nil
}
