package protocol

import (
	"reflect"
	"testing"
)

func sampleServeSubmit() ServeSubmit {
	return ServeSubmit{
		ServeID: 7,
		Jobs: []ServeJob{
			{
				JobID:    1,
				KernelID: 99,
				Args: []GraphKernelArg{
					{Kind: ArgValScalar, Raw: 0xdeadbeef},
					{Kind: ArgValBuffer, Raw: 12},
					{Kind: ArgValSubBuffer, Raw: 12, SubOrg: 64, SubLen: 128},
					{Kind: ArgValLocal, Local: 256},
				},
				InputArg:  0,
				OutputArg: 1,
				Input:     []byte{1, 2, 3, 4},
				OutSize:   16,
				GOffset:   []int{8},
				Global:    []int{64},
				Local:     []int{16},
			},
			{
				JobID:    2,
				KernelID: 99,
				Args:     []GraphKernelArg{},
				InputArg: -1, OutputArg: -1,
				Input:   []byte{},
				GOffset: []int{},
				Global:  []int{1, 2, 3},
				Local:   []int{},
			},
		},
	}
}

func TestServeOpenRoundTrip(t *testing.T) {
	in := ServeOpen{ServeID: 42, Weight: 3, MaxPending: 128, UnitID: 2}
	w := NewWriter()
	PutServeOpen(w, in)
	r := NewReader(w.Bytes())
	if out := GetServeOpen(r); out != in || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("round trip: got %+v err %v rem %d", out, r.Err(), r.Remaining())
	}
}

func TestServeCloseRoundTrip(t *testing.T) {
	in := ServeClose{ServeID: 42}
	w := NewWriter()
	PutServeClose(w, in)
	r := NewReader(w.Bytes())
	if out := GetServeClose(r); out != in || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("round trip: got %+v err %v rem %d", out, r.Err(), r.Remaining())
	}
}

func TestServeSubmitRoundTrip(t *testing.T) {
	in := sampleServeSubmit()
	w := NewWriter()
	PutServeSubmit(w, in)
	r := NewReader(w.Bytes())
	out := GetServeSubmit(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestServeResultsRoundTrip(t *testing.T) {
	in := ServeResults{
		ServeID: 7,
		Results: []ServeResult{
			{JobID: 1, Status: 0, Output: []byte{9, 8, 7}, BatchSize: 4},
			{JobID: 2, Status: -2004, Msg: "busy", Output: []byte{}, BatchSize: 0},
			{JobID: 3, Status: 0, Output: []byte{1}, BatchSize: 0, Cached: true},
		},
	}
	w := NewWriter()
	PutServeResults(w, in)
	r := NewReader(w.Bytes())
	out := GetServeResults(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestServeTruncatedPrefixes feeds every prefix of encoded serve frames
// to their decoders: no prefix may panic, and every strict prefix must
// surface a sticky decode error.
func TestServeTruncatedPrefixes(t *testing.T) {
	sub := NewWriter()
	PutServeSubmit(sub, sampleServeSubmit())
	res := NewWriter()
	PutServeResults(res, ServeResults{ServeID: 1, Results: []ServeResult{
		{JobID: 1, Output: []byte{1, 2, 3}, BatchSize: 2},
	}})
	cases := []struct {
		name   string
		full   []byte
		decode func(*Reader)
	}{
		{"submit", sub.Bytes(), func(r *Reader) { GetServeSubmit(r) }},
		{"results", res.Bytes(), func(r *Reader) { GetServeResults(r) }},
	}
	for _, tc := range cases {
		for n := 0; n < len(tc.full); n++ {
			r := NewReader(tc.full[:n])
			tc.decode(r)
			if r.Err() == nil {
				t.Fatalf("%s prefix %d decoded cleanly", tc.name, n)
			}
			// Errors must stay sticky.
			if got := r.U64(); got != 0 {
				t.Fatalf("%s prefix %d: read after error returned %d", tc.name, n, got)
			}
		}
	}
}

// TestServeHugeCountsRejected pins the bounds checks on the
// length-prefixed lists: a frame claiming more elements than its body
// could hold must fail with ErrTruncated instead of allocating.
func TestServeHugeCountsRejected(t *testing.T) {
	w := NewWriter()
	w.U64(1)           // serve ID
	w.U32(0xffff_ffff) // job count
	r := NewReader(w.Bytes())
	if GetServeSubmit(r); r.Err() == nil {
		t.Fatal("huge job count decoded cleanly")
	}

	w = NewWriter()
	w.U64(1)
	w.U32(1)           // one job...
	w.U64(1)           // job ID
	w.U64(1)           // kernel ID
	w.U32(0xffff_ffff) // ...claiming 4 G arguments
	r = NewReader(w.Bytes())
	if GetServeSubmit(r); r.Err() == nil {
		t.Fatal("huge arg count decoded cleanly")
	}

	w = NewWriter()
	w.U64(1)
	w.U32(0xffff_ffff) // result count
	r = NewReader(w.Bytes())
	if GetServeResults(r); r.Err() == nil {
		t.Fatal("huge result count decoded cleanly")
	}
}
