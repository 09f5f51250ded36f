package appvisor

import (
	"bytes"
	"errors"
	"testing"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// Fuzz targets for the wire parsers, seeded with valid round-trip
// frames so the corpus starts on the happy path and mutates outward.
// The zero-copy parser is held to the copying parser's behavior.

func FuzzParseDatagram(f *testing.F) {
	seed := func(d *datagram) {
		if b, err := d.marshal(); err == nil {
			f.Add(b)
		}
	}
	seed(&datagram{Type: dgHeartbeat})
	seed(&datagram{Type: dgEventDone, ID: 42, Payload: statusPayload(nil)})
	ev, _ := encodeEvent(pktInEvent(7, 3))
	seed(&datagram{Type: dgEvent, ID: 1, Payload: ev})
	batch, _ := encodeEventBatch([]controller.Event{pktInEvent(1, 1), pktInEvent(2, 2)})
	seed(&datagram{Type: dgEventBatch, ID: 2, Payload: batch})
	f.Add([]byte{})
	f.Add([]byte{0x4c, 0x53, 1, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := parseDatagram(b)
		dv, errView := parseDatagramView(b)
		// The two parsers must agree on validity and content.
		if (err == nil) != (errView == nil) {
			t.Fatalf("parsers disagree: %v vs %v", err, errView)
		}
		if err != nil {
			return
		}
		if d.Type != dv.Type || d.ID != dv.ID || !bytes.Equal(d.Payload, dv.Payload) {
			t.Fatalf("view mismatch: %+v vs %+v", d, dv)
		}
		// The copying parser's result must not alias the input.
		if len(b) > headerLen {
			b[headerLen] ^= 0xff
			if bytes.Equal(d.Payload, b[headerLen:]) && len(d.Payload) > 0 {
				t.Fatal("parseDatagram payload aliases input")
			}
		}
	})
}

func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range []controller.Event{
		pktInEvent(1, 1),
		{Seq: 9, Kind: controller.EventSwitchDown, DPID: 4},
		{Seq: 2, Kind: controller.EventFlowRemoved, DPID: 1,
			Message: &openflow.FlowRemoved{Match: openflow.MatchAll(), Priority: 5}},
	} {
		if b, err := encodeEvent(ev); err == nil {
			f.Add(b)
		}
	}
	if b, err := encodeEventBatch([]controller.Event{pktInEvent(1, 1), pktInEvent(2, 2)}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		if ev, err := decodeEvent(b); err == nil && ev.Message != nil {
			// A decoded message must re-encode: the stub forwards it on.
			if _, err := encodeEvent(ev); err != nil {
				t.Fatalf("decoded event does not re-encode: %v", err)
			}
		}
		// The batch decoder shares the per-event parser; it must never
		// panic or loop regardless of the claimed count.
		_, _ = decodeEventBatch(b)
	})
}

func FuzzDecodeCrash(f *testing.F) {
	f.Add(encodeCrash("nil deref", "goroutine 1 [running]:"))
	f.Add(appendCrashIndex(encodeCrash("mid-batch", "stack"), 3))
	f.Add(encodeCrash("", ""))
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		reason, stack, err := decodeCrash(b)
		if err != nil {
			return
		}
		// Round-trip: re-encoding must reproduce a payload the decoder
		// reads back identically (modulo any trailing index bytes).
		reason2, stack2, err := decodeCrash(encodeCrash(reason, stack))
		if err != nil || reason2 != reason || stack2 != stack {
			t.Fatalf("crash round-trip diverged: %q %q %v", reason2, stack2, err)
		}
		_, _ = decodeCrashIndex(b)
	})
}

func FuzzDecodeEventDone(f *testing.F) {
	f.Add(eventDonePayload(nil, []byte("image")))
	f.Add(eventDonePayload(errors.New("handler error"), []byte{}))
	f.Add(eventDonePayload(errors.New("no image"), nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		status, image, ok := decodeEventDone(b)
		if !ok {
			return
		}
		// The image aliases the input (nothing is allocated for it) and
		// the pair re-encodes to a payload that decodes identically.
		if len(image) > len(b) {
			t.Fatalf("image %d bytes from %d", len(image), len(b))
		}
		status2, image2, ok2 := decodeEventDone(eventDonePayload(status, image))
		if !ok2 || (image2 == nil) != (image == nil) || !bytes.Equal(image2, image) || (status == nil) != (status2 == nil) {
			t.Fatalf("round trip diverged: %d/%d image bytes, ok %v", len(image), len(image2), ok2)
		}
	})
}
