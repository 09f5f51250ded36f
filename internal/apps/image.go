package apps

import (
	"encoding/binary"
	"errors"
	"slices"

	"legosdn/internal/openflow"
)

// Checkpoint images. Every registry app encodes its state the same way:
//
//	tag(1) header(fixed) { key(8) count(4) count × record(width) }*
//
// all big-endian, a map's keys in ascending order (one list per switch
// for the two-level maps), so equal state gives equal bytes whatever the
// insertion order, which is what lets checkpoint.EncodeDelta shrink
// consecutive images. Encoding is reflection-free and allocates the
// image and, for maps of up to sortedRoom keys, nothing else. No gob
// stream starts with one of the tags: an image from the gob encoders
// used before AppVisor wire v4 is refused, never mis-decoded.
const (
	tagLearningSwitch byte = 0xA1 + iota
	tagFirewall
	tagStatsCollector
	tagSpanningTree
	tagLoadBalancer
	tagRouter
)

var errBadImage = errors.New("apps: not a checkpoint image of this app")

var be = binary.BigEndian

const sortedRoom = 64 // the on-stack key buffers Snapshot methods hand to sortedWords

// sortedWords appends one word per entry of m to buf (pass room[:0]) and
// returns them in ascending order.
func sortedWords[K comparable, V any](buf []uint64, m map[K]V, word func(K, V) uint64) []uint64 {
	for k, v := range m {
		buf = append(buf, word(k, v))
	}
	slices.Sort(buf)
	return buf
}

// leafCount is how many records a two-level map flattens to.
func leafCount[K comparable, V any](m map[uint64]map[K]V) (n int) {
	for _, inner := range m {
		n += len(inner)
	}
	return n
}

// nested returns m[dpid], created on first use.
func nested[K comparable, V any](m map[uint64]map[K]V, dpid uint64) map[K]V {
	if m[dpid] == nil {
		m[dpid] = make(map[K]V)
	}
	return m[dpid]
}

func keyWord[K uint16 | uint64, V any](k K, _ V) uint64 { return uint64(k) }

// macPort packs an address and a port into one word whose big-endian
// bytes are the address followed by the port.
func macPort(mac openflow.EthAddr, port uint16) uint64 {
	var w [8]byte
	copy(w[:], mac[:])
	be.PutUint16(w[6:], port)
	return be.Uint64(w[:])
}

// newImage starts an image that grows to size bytes after its tag.
func newImage(tag byte, size int) []byte { return append(make([]byte, 0, 1+size), tag) }

// appendList starts a list of n records under key (listHead bytes).
func appendList(b []byte, key uint64, n int) []byte {
	return be.AppendUint32(be.AppendUint64(b, key), uint32(n))
}

const listHead = 12

// readImage checks tag and layout, hands every list of width-byte
// records to list and returns the fixed header.
func readImage(state []byte, tag byte, fixed, width int, list func(key uint64, recs []byte)) ([]byte, error) {
	if len(state) < 1+fixed || state[0] != tag {
		return nil, errBadImage
	}
	for body := state[1+fixed:]; len(body) > 0; {
		if len(body) < listHead {
			return nil, errBadImage
		}
		n := uint64(be.Uint32(body[8:])) * uint64(width)
		if uint64(len(body)-listHead) < n {
			return nil, errBadImage
		}
		list(be.Uint64(body), body[listHead:listHead+n])
		body = body[listHead+n:]
	}
	return state[1 : 1+fixed], nil
}
