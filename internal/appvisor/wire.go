// Package appvisor implements LegoSDN's isolation layer (§3.1, §4.1 of
// the paper): each SDN-App runs inside a Stub — a wrapper holding the
// app in its own failure domain — while a Proxy runs inside the
// controller as a regular SDN-App. Proxy and stub speak a compact RPC
// protocol over UDP, exactly as the paper's FloodLight prototype does.
//
// The stub relays events to the app and converts the app's controller
// calls (FlowMod, PacketOut, stats, topology queries) back into RPCs.
// The proxy detects app crashes through three signals: an explicit
// crash report from the stub wrapper, heartbeat loss, and RPC timeouts.
// Stubs run either in-process (a goroutine domain whose panics are
// contained, the default for tests and benchmarks) or as genuinely
// separate OS processes via cmd/legosdn-stub.
package appvisor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// Datagram types.
const (
	dgRegister      uint8 = 1  // stub -> proxy: app name + subscriptions
	dgRegisterAck   uint8 = 2  // proxy -> stub
	dgEvent         uint8 = 3  // proxy -> stub: deliver one controller event
	dgEventDone     uint8 = 4  // stub -> proxy: event processed (or handler error)
	dgRequest       uint8 = 5  // stub -> proxy: synchronous Context call
	dgResponse      uint8 = 6  // proxy -> stub: Context call result
	dgHeartbeat     uint8 = 7  // stub -> proxy: liveness beacon
	dgSnapshotReq   uint8 = 8  // proxy -> stub: serialize app state
	dgSnapshotReply uint8 = 9  // stub -> proxy
	dgRestoreReq    uint8 = 10 // proxy -> stub: load app state
	dgRestoreDone   uint8 = 11 // stub -> proxy
	dgShutdown      uint8 = 12 // proxy -> stub: exit cleanly
	dgCrash         uint8 = 13 // stub -> proxy: app crashed (wrapper's last gasp)
	dgEventBatch    uint8 = 14 // proxy -> stub: deliver N events, one dgEventDone ack
	dgEventImage    uint8 = 15 // proxy -> stub: dgEvent whose dgEventDone also carries the app's post-event image
)

// Context call opcodes carried by dgRequest.
const (
	opSendMessage uint8 = 1
	opStats       uint8 = 2
	opBarrier     uint8 = 3
	opSwitches    uint8 = 4
	opPorts       uint8 = 5
	opTopology    uint8 = 6
)

const (
	wireMagic uint16 = 0x4c53 // "LS"
	// wireVersion 2 added dgEventBatch (batched event delivery with a
	// single ack) and codec bounds checks. Version 3 widens the event
	// payload with the trace and span ids (16 bytes between seq and the
	// message flag), so a stub process joins the trace its proxy
	// started. Version 4 adds dgEventImage and the image a dgEventDone
	// may carry behind its status (the checkpoint rides the reply). The
	// header layout is unchanged.
	wireVersion uint8 = 4
	headerLen         = 12
	// maxDatagram bounds a single UDP payload; events larger than this
	// (possible only with pathological PacketIn payloads) are rejected.
	maxDatagram = 60 * 1024
)

// ErrBadDatagram reports a malformed or foreign datagram.
var ErrBadDatagram = errors.New("appvisor: bad datagram")

// WireVersion is the AppVisor RPC protocol version, exported for the
// build-info gauge and startup logging.
const WireVersion = wireVersion

// datagram is one framed RPC message.
type datagram struct {
	Type    uint8
	ID      uint64 // RPC correlation id; 0 for one-way messages
	Payload []byte
}

func (d *datagram) marshal() ([]byte, error) {
	return appendDatagram(make([]byte, 0, headerLen+len(d.Payload)), d)
}

// appendDatagram frames d onto dst and returns the extended slice. The
// allocation-free complement to marshal for pooled send buffers.
func appendDatagram(dst []byte, d *datagram) ([]byte, error) {
	if len(d.Payload) > maxDatagram-headerLen {
		return nil, fmt.Errorf("appvisor: datagram payload %d too large", len(d.Payload))
	}
	dst = binary.BigEndian.AppendUint16(dst, wireMagic)
	dst = append(dst, wireVersion, d.Type)
	dst = binary.BigEndian.AppendUint64(dst, d.ID)
	return append(dst, d.Payload...), nil
}

// wireBufPool recycles send buffers for the single-frame fast path, so
// steady-state event traffic allocates nothing for framing.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// writeFrame sends one framed datagram: to addr on the proxy's
// unconnected socket, to the peer (addr nil) on a stub's connected one.
func writeFrame(conn *net.UDPConn, addr *net.UDPAddr, b []byte) (err error) {
	if addr == nil {
		_, err = conn.Write(b)
	} else {
		_, err = conn.WriteToUDP(b, addr)
	}
	return err
}

// writeDatagram frames and sends d. Single-frame datagrams (all of
// steady-state event traffic) are framed into a pooled buffer, so
// sending allocates nothing; oversized payloads are fragmented.
func writeDatagram(conn *net.UDPConn, addr *net.UDPAddr, d *datagram) error {
	if len(d.Payload) <= maxDatagram-headerLen {
		bp := wireBufPool.Get().(*[]byte)
		b, err := appendDatagram((*bp)[:0], d)
		if err == nil {
			*bp = b[:0] // keep any growth for the next send
			err = writeFrame(conn, addr, b)
		}
		wireBufPool.Put(bp)
		return err
	}
	frames, err := marshalFrames(d)
	if err != nil {
		return err
	}
	for _, b := range frames {
		if err := writeFrame(conn, addr, b); err != nil {
			return err
		}
	}
	return nil
}

// parseDatagram decodes one frame, copying the payload so the result
// outlives b. Prefer parseDatagramView in receive loops.
func parseDatagram(b []byte) (*datagram, error) {
	d, err := parseDatagramView(b)
	if err != nil {
		return nil, err
	}
	d.detach()
	return &d, nil
}

// parseDatagramView decodes one frame without copying: the returned
// datagram's Payload aliases b and is only valid until b is reused.
// Receive loops use this to decode events straight out of the socket
// buffer; any branch that retains the payload past the current
// iteration (waiter hand-offs, goroutines, reassembly) must detach()
// first.
func parseDatagramView(b []byte) (datagram, error) {
	if len(b) < headerLen {
		return datagram{}, ErrBadDatagram
	}
	if binary.BigEndian.Uint16(b[0:2]) != wireMagic || b[2] != wireVersion {
		return datagram{}, ErrBadDatagram
	}
	return datagram{
		Type:    b[3],
		ID:      binary.BigEndian.Uint64(b[4:12]),
		Payload: b[headerLen:],
	}, nil
}

// detach copies the payload out of whatever buffer it aliases, making
// the datagram safe to retain.
func (d *datagram) detach() {
	d.Payload = append([]byte(nil), d.Payload...)
}

// --- payload codecs ---

// encodeRegister carries the app name and its event subscriptions. The
// name length rides a uint16 and the subscription count a single byte;
// oversized inputs would silently truncate and corrupt the frame, so
// they are rejected instead.
func encodeRegister(name string, subs []controller.EventKind) ([]byte, error) {
	if len(name) > 0xffff {
		return nil, fmt.Errorf("%w: app name %d bytes exceeds uint16", ErrBadDatagram, len(name))
	}
	if len(subs) > 0xff {
		return nil, fmt.Errorf("%w: %d subscriptions exceed uint8", ErrBadDatagram, len(subs))
	}
	b := make([]byte, 0, 3+len(name)+len(subs))
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = append(b, byte(len(subs)))
	for _, k := range subs {
		b = append(b, byte(k))
	}
	return b, nil
}

func decodeRegister(b []byte) (name string, subs []controller.EventKind, err error) {
	if len(b) < 3 {
		return "", nil, ErrBadDatagram
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+n+1 {
		return "", nil, ErrBadDatagram
	}
	name = string(b[2 : 2+n])
	cnt := int(b[2+n])
	rest := b[2+n+1:]
	if len(rest) < cnt {
		return "", nil, ErrBadDatagram
	}
	subs = make([]controller.EventKind, cnt)
	for i := 0; i < cnt; i++ {
		subs[i] = controller.EventKind(rest[i])
	}
	return name, subs, nil
}

// encodeEvent serializes a controller event: kind, dpid, seq, trace
// context (v3), and the embedded OpenFlow message (if any) in its
// native wire format. The trace ids ride every event frame so the stub
// process opens its handler span under the proxy's relay span; untraced
// events carry zeros.
func encodeEvent(ev controller.Event) ([]byte, error) {
	b := make([]byte, 0, 48)
	b = binary.BigEndian.AppendUint32(b, uint32(ev.Kind))
	b = binary.BigEndian.AppendUint64(b, ev.DPID)
	b = binary.BigEndian.AppendUint64(b, ev.Seq)
	b = binary.BigEndian.AppendUint64(b, ev.Trace.TraceID)
	b = binary.BigEndian.AppendUint64(b, ev.Trace.SpanID)
	if ev.Message == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	return openflow.AppendMessage(b, ev.Message)
}

func decodeEvent(b []byte) (controller.Event, error) {
	var ev controller.Event
	if len(b) < 37 {
		return ev, ErrBadDatagram
	}
	ev.Kind = controller.EventKind(binary.BigEndian.Uint32(b[0:4]))
	ev.DPID = binary.BigEndian.Uint64(b[4:12])
	ev.Seq = binary.BigEndian.Uint64(b[12:20])
	ev.Trace.TraceID = binary.BigEndian.Uint64(b[20:28])
	ev.Trace.SpanID = binary.BigEndian.Uint64(b[28:36])
	if b[36] == 1 {
		msg, err := openflow.Decode(b[37:])
		if err != nil {
			return ev, err
		}
		ev.Message = msg
	}
	return ev, nil
}

// encodeStatus carries an optional error string (dgEventDone,
// dgRestoreDone, dgResponse error halves). Error text longer than a
// uint16 can carry would silently truncate the length field and shear
// the frame, so it is rejected; send paths that must always produce a
// frame use statusPayload instead.
func encodeStatus(err error) ([]byte, error) {
	if err == nil {
		return []byte{0}, nil
	}
	s := err.Error()
	if len(s) > 0xffff {
		return nil, fmt.Errorf("%w: status text %d bytes exceeds uint16", ErrBadDatagram, len(s))
	}
	b := make([]byte, 0, 3+len(s))
	b = append(b, 1)
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// statusPayload is the infallible form of encodeStatus for send paths:
// a pathological error message is clipped (with a marker) rather than
// dropped, so the peer still gets a well-formed status frame.
func statusPayload(err error) []byte {
	b, encErr := encodeStatus(err)
	if encErr == nil {
		return b
	}
	const marker = "... [truncated]"
	s := err.Error()[:0xffff-len(marker)] + marker
	b, _ = encodeStatus(errors.New(s))
	return b
}

func decodeStatus(b []byte) (error, []byte, bool) {
	if len(b) < 1 {
		return nil, nil, false
	}
	if b[0] == 0 {
		return nil, b[1:], true
	}
	if len(b) < 3 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) < 3+n {
		return nil, nil, false
	}
	return errors.New(string(b[3 : 3+n])), b[3+n:], true
}

// eventDonePayload is a dgEventDone body: the handler's status and, when
// a dgEventImage's app was snapshotted (image not nil), 0x01 and the image.
func eventDonePayload(status error, image []byte) []byte {
	b := statusPayload(status)
	if image == nil {
		return b
	}
	return append(append(append(make([]byte, 0, len(b)+1+len(image)), b...), 1), image...)
}

// decodeEventDone is the inverse; image aliases b, nil when none came.
func decodeEventDone(b []byte) (status error, image []byte, ok bool) {
	status, rest, ok := decodeStatus(b)
	if ok && len(rest) > 0 && rest[0] == 1 {
		image = rest[1:]
	}
	return status, image, ok
}

// encodeEventBatch packs N events into one dgEventBatch payload:
// uint16 count, then each event as a uint32 length prefix followed by
// its encodeEvent form. One datagram (fragmented if huge) replaces N
// UDP round trips.
func encodeEventBatch(evs []controller.Event) ([]byte, error) {
	if len(evs) > 0xffff {
		return nil, fmt.Errorf("%w: batch of %d events exceeds uint16", ErrBadDatagram, len(evs))
	}
	b := make([]byte, 0, 2+len(evs)*40)
	b = binary.BigEndian.AppendUint16(b, uint16(len(evs)))
	for _, ev := range evs {
		p, err := encodeEvent(ev)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b, nil
}

func decodeEventBatch(b []byte) ([]controller.Event, error) {
	if len(b) < 2 {
		return nil, ErrBadDatagram
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	evs := make([]controller.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, ErrBadDatagram
		}
		sz := int(binary.BigEndian.Uint32(b[0:4]))
		if sz < 0 || len(b) < 4+sz {
			return nil, ErrBadDatagram
		}
		ev, err := decodeEvent(b[4 : 4+sz])
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
		b = b[4+sz:]
	}
	return evs, nil
}

// encodeCrash carries the wrapper's crash report: the panic value and
// stack trace, which the proxy folds into a problem ticket.
func encodeCrash(reason, stack string) []byte {
	b := make([]byte, 0, 8+len(reason)+len(stack))
	b = binary.BigEndian.AppendUint32(b, uint32(len(reason)))
	b = append(b, reason...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(stack)))
	return append(b, stack...)
}

func decodeCrash(b []byte) (reason, stack string, err error) {
	if len(b) < 4 {
		return "", "", ErrBadDatagram
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	if len(b) < 4+n+4 {
		return "", "", ErrBadDatagram
	}
	reason = string(b[4 : 4+n])
	rest := b[4+n:]
	m := int(binary.BigEndian.Uint32(rest[0:4]))
	if len(rest) < 4+m {
		return "", "", ErrBadDatagram
	}
	return reason, string(rest[4 : 4+m]), nil
}

// appendCrashIndex extends a crash payload with the batch position of
// the event that killed the app. decodeCrash ignores trailing bytes, so
// the suffix is backward compatible with v1-style consumers.
func appendCrashIndex(payload []byte, idx int) []byte {
	return binary.BigEndian.AppendUint32(payload, uint32(idx))
}

// decodeCrashIndex recovers the batch index from an indexed crash
// payload; ok is false for plain (single-event) crash reports.
func decodeCrashIndex(b []byte) (idx int, ok bool) {
	if len(b) < 4 {
		return 0, false
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	if len(b) < 4+n+4 {
		return 0, false
	}
	rest := b[4+n:]
	m := int(binary.BigEndian.Uint32(rest[0:4]))
	if len(rest) < 4+m+4 {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(rest[4+m : 4+m+4])), true
}

// encodeRequest frames a Context call: opcode, dpid, optional message.
func encodeRequest(op uint8, dpid uint64, msg openflow.Message) ([]byte, error) {
	b := make([]byte, 0, 16)
	b = append(b, op)
	b = binary.BigEndian.AppendUint64(b, dpid)
	if msg == nil {
		return b, nil
	}
	return openflow.AppendMessage(b, msg)
}

func decodeRequest(b []byte) (op uint8, dpid uint64, msg openflow.Message, err error) {
	if len(b) < 9 {
		return 0, 0, nil, ErrBadDatagram
	}
	op = b[0]
	dpid = binary.BigEndian.Uint64(b[1:9])
	if len(b) > 9 {
		msg, err = openflow.Decode(b[9:])
		if err != nil {
			return 0, 0, nil, err
		}
	}
	return op, dpid, msg, nil
}

// encodeSwitches packs a dpid list; the uint16 count field bounds it.
func encodeSwitches(dpids []uint64) ([]byte, error) {
	if len(dpids) > 0xffff {
		return nil, fmt.Errorf("%w: %d switches exceed uint16", ErrBadDatagram, len(dpids))
	}
	b := make([]byte, 0, 2+8*len(dpids))
	b = binary.BigEndian.AppendUint16(b, uint16(len(dpids)))
	for _, d := range dpids {
		b = binary.BigEndian.AppendUint64(b, d)
	}
	return b, nil
}

func decodeSwitches(b []byte) ([]uint64, error) {
	if len(b) < 2 {
		return nil, ErrBadDatagram
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+8*n {
		return nil, ErrBadDatagram
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = binary.BigEndian.Uint64(b[2+8*i : 2+8*(i+1)])
	}
	return out, nil
}

// encodePorts packs PhyPort descriptors in their OpenFlow wire form.
func encodePorts(ports []openflow.PhyPort) []byte {
	// Reuse the FeaturesReply body layout for the port array.
	fr := &openflow.FeaturesReply{Ports: ports}
	raw, _ := openflow.Encode(fr)
	return raw
}

func decodePorts(b []byte) ([]openflow.PhyPort, error) {
	msg, err := openflow.Decode(b)
	if err != nil {
		return nil, err
	}
	fr, ok := msg.(*openflow.FeaturesReply)
	if !ok {
		return nil, ErrBadDatagram
	}
	return fr.Ports, nil
}

// encodeTopology packs discovered links; the uint16 count bounds it.
func encodeTopology(links []controller.LinkInfo) ([]byte, error) {
	if len(links) > 0xffff {
		return nil, fmt.Errorf("%w: %d links exceed uint16", ErrBadDatagram, len(links))
	}
	b := make([]byte, 0, 2+20*len(links))
	b = binary.BigEndian.AppendUint16(b, uint16(len(links)))
	for _, l := range links {
		b = binary.BigEndian.AppendUint64(b, l.SrcDPID)
		b = binary.BigEndian.AppendUint16(b, l.SrcPort)
		b = binary.BigEndian.AppendUint64(b, l.DstDPID)
		b = binary.BigEndian.AppendUint16(b, l.DstPort)
	}
	return b, nil
}

func decodeTopology(b []byte) ([]controller.LinkInfo, error) {
	if len(b) < 2 {
		return nil, ErrBadDatagram
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+20*n {
		return nil, ErrBadDatagram
	}
	out := make([]controller.LinkInfo, n)
	for i := 0; i < n; i++ {
		off := 2 + 20*i
		out[i] = controller.LinkInfo{
			SrcDPID: binary.BigEndian.Uint64(b[off : off+8]),
			SrcPort: binary.BigEndian.Uint16(b[off+8 : off+10]),
			DstDPID: binary.BigEndian.Uint64(b[off+10 : off+18]),
			DstPort: binary.BigEndian.Uint16(b[off+18 : off+20]),
		}
	}
	return out, nil
}
