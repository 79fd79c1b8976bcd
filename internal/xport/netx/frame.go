// Package netx is the real-transport backend: an xport.Transport that
// carries protocol messages between OS processes over TCP sockets (or any
// net.Conn, e.g. net.Pipe in tests) instead of simulated delivery events.
// The protocol stacks — ASVM's state machines, the pager, the forwarding
// fallback chain — run against it unchanged: messages are serialized with
// the codec each protocol registered in the xport wire-codec registry,
// and every transport-level failure (unknown peer, dead peer, remote
// process with no handler) surfaces as the same xport.Nack bounce the
// simulated transports produce, so the fallback logic that survives
// crashed nodes in simulation survives killed processes on a real mesh.
//
// What netx deliberately does NOT provide is the simulator's determinism:
// real sockets deliver in real order. The deterministic twin of every
// experiment stays on the simulated transports; netx is for running the
// same protocol code where the latencies are measured, not modelled.
package netx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"asvm/internal/mesh"
	"asvm/internal/xport"
)

// wireVersion is the frame-format generation. The hello exchange rejects
// mismatched peers instead of misparsing them; bump it on any change to
// the frame layout below or to a registered message codec's golden frames.
const wireVersion = 1

// Frame kinds. Every frame on a connection is a u32 little-endian length
// prefix followed by a body starting with one of these bytes.
const (
	frameHello  = 1 // u16 version | u32 sender node
	frameMsg    = 2 // routed protocol message (layout below)
	frameBounce = 3 // a frameMsg echoed back undeliverable: same layout
)

// A msg/bounce body after the kind byte:
//
//	u32 src | u32 dst | u16 proto-name length | proto name bytes |
//	u32 payloadBytes | u32 encoded-message length | encoded message
//
// Proto *names* travel on the wire, never ProtoIDs: IDs are process-local
// interning order, so each process maps the name back through its own
// registry. payloadBytes is the sender's accounted protocol payload,
// carried for byte statistics (netx models no costs).

// defaultMaxFrame bounds a frame body. A page is 8 KB; headers are tens of
// bytes; 1 MiB is generous headroom and a hard stop against a corrupt
// length prefix allocating gigabytes.
const defaultMaxFrame = 1 << 20

// frameHeadroom is the capacity a msg frame reserves beyond its accounted
// payload: the length prefix, the routing header and a codec's fixed
// fields fit in it, so a frame is normally built in one allocation.
const frameHeadroom = 128

// wireMsg is a parsed msg/bounce frame body.
type wireMsg struct {
	src, dst     mesh.NodeID
	protoName    string
	payloadBytes int
	encoded      []byte
}

// appendHello appends a complete hello frame.
func appendHello(dst []byte, self mesh.NodeID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 7)
	dst = append(dst, frameHello)
	dst = binary.LittleEndian.AppendUint16(dst, wireVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(self)))
}

// appendMsgFrame appends one complete msg frame to dst: length prefix,
// routing header, then m encoded by codec straight into the frame. The
// two length fields are patched in once the codec has appended, so the
// message is encoded exactly once and never copied. A receiver that
// cannot deliver the frame echoes it back verbatim as a bounce.
func appendMsgFrame(dst []byte, src, dstNode mesh.NodeID, protoName string, payloadBytes int, codec xport.WireCodec, m interface{}) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameMsg)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(src)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(dstNode)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(protoName)))
	dst = append(dst, protoName...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadBytes))
	encAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := codec.AppendMsg(dst, m)
	if err != nil {
		return dst[:start], err
	}
	binary.LittleEndian.PutUint32(dst[encAt:], uint32(len(dst)-encAt-4))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// parseMsgBody parses a msg/bounce frame body (kind byte included).
func parseMsgBody(body []byte) (wireMsg, error) {
	var m wireMsg
	if len(body) < 1+4+4+2 {
		return m, fmt.Errorf("netx: short message frame (%d bytes)", len(body))
	}
	m.src = mesh.NodeID(int32(binary.LittleEndian.Uint32(body[1:5])))
	m.dst = mesh.NodeID(int32(binary.LittleEndian.Uint32(body[5:9])))
	nameLen := int(binary.LittleEndian.Uint16(body[9:11]))
	rest := body[11:]
	if len(rest) < nameLen+8 {
		return m, fmt.Errorf("netx: truncated message frame")
	}
	m.protoName = string(rest[:nameLen])
	rest = rest[nameLen:]
	m.payloadBytes = int(binary.LittleEndian.Uint32(rest[0:4]))
	encLen := int(binary.LittleEndian.Uint32(rest[4:8]))
	rest = rest[8:]
	if len(rest) != encLen {
		return m, fmt.Errorf("netx: message frame length mismatch (have %d, header says %d)", len(rest), encLen)
	}
	m.encoded = rest
	return m, nil
}

// frameReader reads the length-prefixed frames of one connection through
// a bufio.Reader into a single reused buffer, so a stream of frames costs
// no allocation per frame. A frame it returns is valid only until the
// next call: every consumer either decodes it (wire codecs copy out what
// a message keeps, page data included) or echoes it back before reading
// on.
type frameReader struct {
	r        *bufio.Reader
	maxFrame int
	buf      []byte
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	return &frameReader{r: bufio.NewReader(r), maxFrame: maxFrame, buf: make([]byte, 4)}
}

// next reads one frame and returns it whole, length prefix included.
// maxFrame guards the allocation implied by the length prefix.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.buf[:4]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.buf[:4])
	if uint64(n) > uint64(fr.maxFrame) {
		return nil, fmt.Errorf("netx: frame of %d bytes exceeds limit %d", n, fr.maxFrame)
	}
	size := 4 + int(n)
	if cap(fr.buf) < size {
		grown := make([]byte, size)
		copy(grown, fr.buf[:4])
		fr.buf = grown
	}
	frame := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, frame[4:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// hello reads and validates the hello frame that must open every
// connection, returning the peer's claimed node ID.
func (fr *frameReader) hello() (mesh.NodeID, error) {
	frame, err := fr.next()
	if err != nil {
		return 0, fmt.Errorf("netx: reading hello: %w", err)
	}
	body := frame[4:]
	if len(body) != 7 || body[0] != frameHello {
		return 0, fmt.Errorf("netx: connection did not open with a hello frame")
	}
	if v := binary.LittleEndian.Uint16(body[1:3]); v != wireVersion {
		return 0, fmt.Errorf("netx: peer speaks wire version %d, this build speaks %d", v, wireVersion)
	}
	return mesh.NodeID(int32(binary.LittleEndian.Uint32(body[3:7]))), nil
}
