package oftrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"legosdn/internal/openflow"
)

// v1Trace hand-builds a legacy-format trace (Writers only emit v2).
func v1Trace(frames ...[]byte) []byte {
	var b bytes.Buffer
	b.Write(magicV1[:])
	for i, f := range frames {
		var hdr [hdrLenV1]byte
		binary.BigEndian.PutUint64(hdr[0:8], uint64(i))
		hdr[8] = byte(In)
		binary.BigEndian.PutUint64(hdr[9:17], 1)
		binary.BigEndian.PutUint32(hdr[17:21], uint32(len(f)))
		b.Write(hdr[:])
		b.Write(f)
	}
	return b.Bytes()
}

func v2Trace(frames ...[]byte) []byte {
	var b bytes.Buffer
	w, _ := NewWriter(&b)
	for _, f := range frames {
		_ = w.RecordTraced(Out, 2, time.Unix(0, 42), 7, f)
	}
	_ = w.Flush()
	return b.Bytes()
}

// FuzzReader throws arbitrary bytes at the trace reader in both wire
// formats. The contract under corruption: Next either returns a record,
// io.EOF at a clean end, or an error wrapping ErrBadTrace — it must
// never panic, hang, or allocate a frame bigger than the OpenFlow
// message cap.
func FuzzReader(f *testing.F) {
	hello, _ := openflow.Encode(&openflow.Hello{})
	fm, _ := openflow.Encode(&openflow.FlowMod{
		Match:    openflow.MatchAll(),
		Command:  openflow.FlowModAdd,
		BufferID: openflow.BufferIDNone,
		OutPort:  openflow.PortNone,
	})

	f.Add(v1Trace(hello))
	f.Add(v1Trace(hello, fm))
	f.Add(v2Trace(hello))
	f.Add(v2Trace(hello, fm))
	f.Add(v1Trace())
	f.Add(v2Trace())
	// Truncations at every structural boundary.
	full := v2Trace(hello, fm)
	f.Add(full[:4])                                 // inside the magic
	f.Add(full[:8])                                 // header only
	f.Add(full[:8+hdrLenV2-3])                      // inside a record header
	f.Add(full[:len(full)-3])                       // inside the last frame
	f.Add(append(full[:len(full):len(full)], 0xFF)) // trailing garbage
	// Corrupt magic and an absurd frame length.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xFF
	f.Add(bad)
	huge := v2Trace(hello)
	binary.BigEndian.PutUint32(huge[8+25:8+29], 1<<30)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewReader error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		for i := 0; i < 1<<16; i++ { // bounded: malformed input must not loop forever
			rec, err := r.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrBadTrace) {
					t.Fatalf("Next error %v is neither io.EOF nor ErrBadTrace", err)
				}
				return
			}
			if len(rec.Frame) > openflow.MaxMessageLen {
				t.Fatalf("record frame %d bytes exceeds message cap", len(rec.Frame))
			}
			// Decoding and rendering a hostile frame must not panic.
			_, _ = rec.Decode()
			_ = rec.String()
		}
	})
}

// FuzzRoundTrip checks write-read symmetry: any byte string recorded as
// a frame must come back identical through the v2 writer/reader pair.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint64(0))
	f.Add([]byte{1, 2, 3}, uint64(9), uint64(0xabc))
	hello, _ := openflow.Encode(&openflow.Hello{})
	f.Add(hello, uint64(3), uint64(7))

	f.Fuzz(func(t *testing.T, frame []byte, dpid, traceID uint64) {
		if len(frame) > openflow.MaxMessageLen {
			frame = frame[:openflow.MaxMessageLen]
		}
		var b bytes.Buffer
		w, err := NewWriter(&b)
		if err != nil {
			t.Fatal(err)
		}
		ts := time.Unix(0, 1234)
		if err := w.RecordTraced(In, dpid, ts, traceID, frame); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(&b)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.DPID != dpid || rec.TraceID != traceID || rec.Dir != In {
			t.Fatalf("metadata mismatch: %+v", rec)
		}
		if !rec.Time.Equal(ts) {
			t.Fatalf("time %v != %v", rec.Time, ts)
		}
		if !bytes.Equal(rec.Frame, frame) {
			t.Fatalf("frame mismatch: %x != %x", rec.Frame, frame)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("want clean EOF, got %v", err)
		}
	})
}
