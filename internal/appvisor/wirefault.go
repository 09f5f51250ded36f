package appvisor

import (
	"net"
	"time"
)

// WireAction is the fate a WireFault assigns to one outgoing datagram.
type WireAction int

// Wire fault actions. The datagram-level faults model exactly what
// loopback UDP can legally do to the proxy/stub path: shed a datagram,
// deliver it twice, deliver it late (and therefore out of order
// relative to later traffic), or mangle it in flight.
const (
	// WirePass delivers the datagram normally (combine with
	// WireVerdict.Delay for a late, possibly reordered delivery).
	WirePass WireAction = iota
	// WireDrop sheds the datagram silently.
	WireDrop
	// WireDup delivers the datagram twice back to back.
	WireDup
	// WireCorrupt flips the leading header byte so the receiver rejects
	// the frame outright — a datagram that failed its checksum.
	WireCorrupt
)

// WireVerdict is a WireFault's decision for one datagram.
type WireVerdict struct {
	Action WireAction
	// Delay, when nonzero and the action is WirePass, detaches the send
	// onto its own goroutine and delivers after the delay, letting later
	// datagrams overtake it.
	Delay time.Duration
}

// WireFault intercepts outgoing event-path datagrams (dgEvent and
// dgEventBatch on the proxy side, dgEventDone on the stub side) before
// they hit the socket. origin is "proxy" or "stub"; app is the hosted
// app's name. Implementations must be safe for concurrent use and must
// not block: the hook runs on the sender's goroutine.
type WireFault func(origin, app string, dgType uint8) WireVerdict

// applyWireFault executes v for datagram d, bound for addr on conn (see
// writeFrame). handled reports that the fault path consumed the send and
// the caller must not write the datagram again.
func applyWireFault(v WireVerdict, d *datagram, conn *net.UDPConn, addr *net.UDPAddr) (handled bool, err error) {
	write := func(d *datagram) error { return writeDatagram(conn, addr, d) }
	switch v.Action {
	case WireDrop:
		return true, nil
	case WireDup:
		if err := write(d); err != nil {
			return true, err
		}
		return true, write(d)
	case WireCorrupt:
		b, err := appendDatagram(nil, d)
		if err != nil {
			// Oversized payloads cannot be single-framed; shedding the
			// datagram is the closest legal corruption.
			return true, nil
		}
		b[0] ^= 0xFF
		return true, writeFrame(conn, addr, b)
	}
	if v.Delay > 0 {
		cp := *d
		cp.Payload = append([]byte(nil), d.Payload...)
		go func() {
			time.Sleep(v.Delay)
			_ = write(&cp)
		}()
		return true, nil
	}
	return false, nil
}
