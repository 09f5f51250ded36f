package replica

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The replication stream is a full-duplex framed protocol between one
// shipper (leader side) and one applier (follower side). Two logical
// streams are multiplexed over the connection — the NetLog journal and
// the checkpoint log — each carrying raw durable.WAL records tagged
// with monotonic positions, plus reset frames announcing a new WAL
// generation (compaction or a fresh leader). A shipping pass encodes
// each stream's frames back to back and writes them with one call, so
// frame boundaries and write boundaries are unrelated: a reader parses
// frames out of a byte stream. The follower answers each burst it has
// drained with one cumulative NetLog ack; the leader's quorum-commit
// mode waits on those acked positions. Checkpoint frames are never
// acked — no wait depends on them.
//
// Frame layout:
//
//	[u8 kind] [u8 stream] [u8 rectype] [u64 pos] [u64 gen] [u32 len] [payload]
//
// kind=reset carries no payload; pos is the position just before the
// first record of the new generation (the follower wipes its shadow
// log and resumes applying at pos+1). kind=ack flows follower→leader
// on the NetLog stream with pos = the highest position received there.

// Frame kinds.
const (
	frameReset  byte = 1
	frameRecord byte = 2
	frameAck    byte = 3
)

// Logical streams.
const (
	streamNetlog      byte = 1
	streamCheckpoints byte = 2
)

// streamName labels a stream id for diagnostics.
func streamName(id byte) string {
	switch id {
	case streamNetlog:
		return "netlog"
	case streamCheckpoints:
		return "checkpoints"
	default:
		return fmt.Sprintf("stream(%d)", id)
	}
}

// frame is one replication protocol message.
type frame struct {
	Kind    byte
	Stream  byte
	RecType byte
	Pos     uint64
	Gen     uint64
	Payload []byte
}

const frameHeaderSize = 1 + 1 + 1 + 8 + 8 + 4

// maxFramePayload bounds a frame body; WAL records are checkpoint
// images and journal entries, well under this.
const maxFramePayload = 64 << 20

// appendFrame appends f's encoding to buf.
func appendFrame(buf []byte, f frame) []byte {
	buf = append(buf, f.Kind, f.Stream, f.RecType)
	buf = binary.BigEndian.AppendUint64(buf, f.Pos)
	buf = binary.BigEndian.AppendUint64(buf, f.Gen)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	return append(buf, f.Payload...)
}

// readFrame decodes one frame, blocking until it is fully available.
func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{
		Kind:    hdr[0],
		Stream:  hdr[1],
		RecType: hdr[2],
		Pos:     binary.BigEndian.Uint64(hdr[3:11]),
		Gen:     binary.BigEndian.Uint64(hdr[11:19]),
	}
	n := binary.BigEndian.Uint32(hdr[19:23])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("replica: frame payload %d exceeds limit", n)
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}
