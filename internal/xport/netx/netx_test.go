package netx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asvm/internal/mesh"
	"asvm/internal/xport"
)

// The tests run netx against its own tiny protocol + codec, so they need
// nothing from the real protocol stacks.

var testProto = xport.RegisterProto("netxtest")

type testMsg struct {
	N uint64
	S string
}

// pageMsg is a page-sized message whose decoded form holds a byte slice,
// like the protocol's own page-carrying kinds.
type pageMsg struct {
	N    uint64
	Data []byte
}

type testCodec struct{}

const (
	tagTest = 0
	tagPage = 1
)

func (testCodec) AppendMsg(dst []byte, m interface{}) ([]byte, error) {
	switch v := m.(type) {
	case testMsg:
		dst = append(dst, tagTest)
		dst = binary.LittleEndian.AppendUint64(dst, v.N)
		return append(dst, v.S...), nil
	case pageMsg:
		dst = append(dst, tagPage)
		dst = binary.LittleEndian.AppendUint64(dst, v.N)
		return append(dst, v.Data...), nil
	}
	return dst, fmt.Errorf("testCodec: cannot encode %T", m)
}

// DecodeMsg copies everything it keeps out of b, as the WireCodec
// contract requires: netx reads the next frame over b.
func (testCodec) DecodeMsg(b []byte) (interface{}, error) {
	if len(b) < 9 {
		return nil, fmt.Errorf("testCodec: short message")
	}
	n := binary.LittleEndian.Uint64(b[1:9])
	switch b[0] {
	case tagTest:
		return testMsg{N: n, S: string(b[9:])}, nil
	case tagPage:
		return pageMsg{N: n, Data: append([]byte(nil), b[9:]...)}, nil
	}
	return nil, fmt.Errorf("testCodec: unknown tag %d", b[0])
}

// bounceProto is a second channel on the same codec, for tests where only
// the sender registers a handler, so the receiver bounces its traffic.
var bounceProto = xport.RegisterProto("netxtest.bounce")

func init() {
	xport.RegisterWireCodec("netxtest", testCodec{})
	xport.RegisterWireCodec("netxtest.bounce", testCodec{})
}

// testExec serializes injected closures on one goroutine, standing in for
// the rt.Loop the daemon uses.
type testExec struct{ ch chan func() }

func newTestExec(t *testing.T) *testExec {
	e := &testExec{ch: make(chan func(), 4096)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for fn := range e.ch {
			fn()
		}
	}()
	t.Cleanup(func() { close(e.ch); <-done })
	return e
}

func (e *testExec) Inject(fn func()) { e.ch <- fn }

type recvd struct {
	src mesh.NodeID
	m   interface{}
}

// pipePair wires two transports together with net.Pipe in both
// directions: each side's Dial hands the opposite end to the other
// transport's ServeConn, exactly as a TCP accept loop would.
func pipePair(t *testing.T) (*Transport, *Transport, chan recvd, chan recvd) {
	t.Helper()
	var ta, tb *Transport
	dialInto := func(target **Transport) func(string) (net.Conn, error) {
		return func(string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			tp := *target
			go tp.ServeConn(c2)
			return c1, nil
		}
	}
	ta = New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: "pipe:b"}, Dial: dialInto(&tb)})
	tb = New(newTestExec(t), Config{Self: 1, Peers: map[mesh.NodeID]string{0: "pipe:a"}, Dial: dialInto(&ta)})
	t.Cleanup(func() { ta.Close(); tb.Close() })

	chA := make(chan recvd, 64)
	chB := make(chan recvd, 64)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })
	tb.Register(1, testProto, func(src mesh.NodeID, m interface{}) { chB <- recvd{src, m} })
	return ta, tb, chA, chB
}

func waitRecv(t *testing.T, ch chan recvd) recvd {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
		return recvd{}
	}
}

// A message sent to a registered remote handler arrives decoded, with the
// true source.
func TestPipeDelivery(t *testing.T) {
	ta, tb, chA, chB := pipePair(t)

	ta.Send(0, 1, testProto, 128, testMsg{N: 42, S: "hello"})
	r := waitRecv(t, chB)
	if r.src != 0 {
		t.Errorf("delivered src = %d, want 0", r.src)
	}
	if got, want := r.m, (testMsg{N: 42, S: "hello"}); got != want {
		t.Errorf("delivered %+v, want %+v", got, want)
	}

	// And the reverse direction, over the other pipe.
	back := testMsg{N: 7, S: "ack"}
	tb.Send(1, 0, testProto, 0, back)
	r = waitRecv(t, chA)
	if r.src != 1 || r.m != back {
		t.Errorf("reverse delivery got src=%d m=%+v", r.src, r.m)
	}
}

// A message to a node whose process has no handler for the channel comes
// back as a Nack on the sender's own handler, with src = the unreachable
// node — the exact contract the forwarding fallback chain relies on.
func TestRemoteBounceBecomesNack(t *testing.T) {
	var ta, tb *Transport
	dialInto := func(target **Transport) func(string) (net.Conn, error) {
		return func(string) (net.Conn, error) {
			c1, c2 := net.Pipe()
			tp := *target
			go tp.ServeConn(c2)
			return c1, nil
		}
	}
	ta = New(newTestExec(t), Config{Self: 0, Peers: map[mesh.NodeID]string{1: "pipe:b"}, Dial: dialInto(&tb)})
	tb = New(newTestExec(t), Config{Self: 1, Peers: map[mesh.NodeID]string{0: "pipe:a"}, Dial: dialInto(&ta)})
	t.Cleanup(func() { ta.Close(); tb.Close() })

	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })
	// tb registers nothing: node 1 cannot accept testProto traffic.

	sent := testMsg{N: 9, S: "undeliverable"}
	ta.Send(0, 1, testProto, 0, sent)
	r := waitRecv(t, chA)
	if r.src != 1 {
		t.Errorf("Nack delivered with src=%d, want the unreachable node 1", r.src)
	}
	nack, ok := r.m.(xport.Nack)
	if !ok {
		t.Fatalf("expected xport.Nack, got %T", r.m)
	}
	if nack.Dst != 1 || nack.Proto != testProto {
		t.Errorf("Nack{Dst:%d Proto:%v}, want {1 %v}", nack.Dst, nack.Proto, testProto)
	}
	if nack.Msg != sent {
		t.Errorf("Nack carries %+v, want the original %+v", nack.Msg, sent)
	}
	if s := ta.Stats(); s.BouncesRecv == 0 {
		t.Error("sender stats show no received bounce")
	}
	if s := tb.Stats(); s.BouncesSent == 0 {
		t.Error("receiver stats show no sent bounce")
	}
}

// A peer that cannot be dialed at all produces the same Nack — this is
// the dead-process case the fallback chain must survive.
func TestDeadPeerBecomesNack(t *testing.T) {
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: "dead"},
		Dial: func(string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		RedialCooldown: time.Millisecond,
	})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 1, testProto, 0, testMsg{N: 1})
	r := waitRecv(t, chA)
	nack, ok := r.m.(xport.Nack)
	if !ok || nack.Dst != 1 {
		t.Fatalf("expected Nack{Dst:1}, got %T %+v", r.m, r.m)
	}
	if s := ta.Stats(); s.DialFailures == 0 || s.LocalNacks == 0 {
		t.Errorf("stats %+v missing the dial failure / local nack", s)
	}
}

// A destination not in the peer map bounces immediately.
func TestUnknownPeerBecomesNack(t *testing.T) {
	ta := New(newTestExec(t), Config{Self: 0, Peers: nil})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 5, testProto, 0, testMsg{N: 2})
	r := waitRecv(t, chA)
	if nack, ok := r.m.(xport.Nack); !ok || nack.Dst != 5 {
		t.Fatalf("expected Nack{Dst:5}, got %T %+v", r.m, r.m)
	}
}

// Self-sends bypass the codec entirely and preserve message identity.
func TestSelfDelivery(t *testing.T) {
	ta := New(newTestExec(t), Config{Self: 3})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 16)
	ta.Register(3, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	sent := &testMsg{N: 5} // pointer: identity must survive, not just value
	ta.Send(3, 3, testProto, 0, sent)
	r := waitRecv(t, chA)
	if r.src != 3 {
		t.Errorf("self delivery src=%d, want 3", r.src)
	}
	if r.m != interface{}(sent) {
		t.Errorf("self delivery did not preserve message identity")
	}
}

// Full TCP: two transports on localhost ephemeral ports, traffic both
// ways, stats moving, clean close. This is the socket path asvmd runs.
func TestTCPLoopback(t *testing.T) {
	mkNode := func(self mesh.NodeID) (*Transport, chan recvd) {
		tr := New(newTestExec(t), Config{Self: self, Listen: "127.0.0.1:0"})
		if err := tr.Start(); err != nil {
			t.Fatalf("node %d listen: %v", self, err)
		}
		t.Cleanup(tr.Close)
		ch := make(chan recvd, 64)
		tr.Register(self, testProto, func(src mesh.NodeID, m interface{}) { ch <- recvd{src, m} })
		return tr, ch
	}
	ta, chA := mkNode(0)
	tb, chB := mkNode(1)
	// Peer addresses are only known after both listeners are up.
	ta.AddPeer(1, tb.Addr().String())
	tb.AddPeer(0, ta.Addr().String())

	const n = 50
	for i := 0; i < n; i++ {
		ta.Send(0, 1, testProto, 64, testMsg{N: uint64(i), S: "ping"})
		tb.Send(1, 0, testProto, 64, testMsg{N: uint64(i), S: "pong"})
	}
	seenB := make(map[uint64]bool)
	seenA := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		rb := waitRecv(t, chB)
		seenB[rb.m.(testMsg).N] = true
		ra := waitRecv(t, chA)
		seenA[ra.m.(testMsg).N] = true
	}
	if len(seenA) != n || len(seenB) != n {
		t.Fatalf("delivered %d/%d and %d/%d distinct messages", len(seenA), n, len(seenB), n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for ta.Outstanding() != 0 || tb.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding never drained: a=%d b=%d", ta.Outstanding(), tb.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
	if s := ta.Stats(); s.FramesSent < n || s.BytesSent == 0 {
		t.Errorf("sender stats did not move: %+v", s)
	}
}

// Closing a transport bounces anything still queued instead of dropping
// it silently.
func TestCloseBouncesQueued(t *testing.T) {
	dialStarted := make(chan struct{})
	release := make(chan struct{})
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: "slow"},
		Dial: func(string) (net.Conn, error) {
			close(dialStarted)
			<-release
			return nil, errors.New("gone")
		},
	})
	chA := make(chan recvd, 16)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	ta.Send(0, 1, testProto, 0, testMsg{N: 1})
	<-dialStarted
	ta.Send(0, 1, testProto, 0, testMsg{N: 2}) // queued behind the stuck dial
	close(release)
	ta.Close()
	// Both messages must come back as Nacks (dial failed; then shutdown).
	for i := 0; i < 2; i++ {
		r := waitRecv(t, chA)
		if _, ok := r.m.(xport.Nack); !ok {
			t.Fatalf("message %d: expected Nack, got %T", i, r.m)
		}
	}
}

// countingConn is a client TCP connection that counts plain Write calls.
// It keeps the connection's vectored write path, as production does, so
// a batch that goes out as one writev never reaches Write.
type countingConn struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(b)
}

// Frames queued while the writer is busy go out as one batch: they arrive
// byte-identical and in order, and the connection sees fewer Write calls
// than frames.
func TestQueuedFramesGoOutAsOneBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		received <- b
	}()

	dialStarted := make(chan struct{})
	release := make(chan struct{})
	var conn *countingConn
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: ln.Addr().String()},
		Dial: func(addr string) (net.Conn, error) {
			close(dialStarted)
			<-release
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			conn = &countingConn{TCPConn: c.(*net.TCPConn)}
			return conn, nil
		},
	})
	chA := make(chan recvd, 64)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	const frames = 32
	want := appendHello(nil, 0)
	for i := 0; i < frames; i++ {
		var m interface{} = testMsg{N: uint64(i), S: strings.Repeat("x", i)}
		if i%4 == 3 {
			m = pageMsg{N: uint64(i), Data: bytes.Repeat([]byte{byte(i)}, 8192)}
		}
		ta.Send(0, 1, testProto, 0, m)
		want, err = appendMsgFrame(want, 0, 1, testProto.Name(), 0, testCodec{}, m)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-dialStarted // the writer holds frame 0; the rest queue behind the dial
		}
	}
	close(release)
	waitDrained(t, ta)
	st := ta.Stats()
	writes := conn.writes.Load()
	ta.Close() // EOF for the reader

	got := <-received
	if !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from the frames sent: got %d bytes, want %d", len(got), len(want))
	}
	if st.FramesSent != frames || st.BytesSent != uint64(len(want)-len(appendHello(nil, 0))) {
		t.Errorf("stats %+v, want %d frames and %d bytes", st, frames, len(want)-len(appendHello(nil, 0)))
	}
	if writes >= frames {
		t.Errorf("%d Write calls for %d frames: the writer is not batching", writes, frames)
	}
	select {
	case r := <-chA:
		t.Errorf("unexpected local delivery %+v", r)
	default:
	}
}

// waitDrained waits until tr holds nothing queued or in flight.
func waitDrained(t *testing.T, tr *Transport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding never drained: %d", tr.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
}

// brokenConn accepts budget bytes, then fails every write; reads block
// until Close.
type brokenConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
	closed chan struct{}
	once   sync.Once
}

func (c *brokenConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(b) <= c.budget {
		c.budget -= len(b)
		return len(b), nil
	}
	n := c.budget
	c.budget = 0
	return n, errors.New("connection reset")
}

func (c *brokenConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *brokenConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// A connection that dies partway through a batch: the frames it took
// whole count as sent, and every other frame comes back as a local Nack,
// once — none lost, none duplicated.
func TestTornBatchNacksExactlyTheUnsentFrames(t *testing.T) {
	const frames, whole = 6, 3
	frameLen := func(i int) int {
		f, err := appendMsgFrame(nil, 0, 1, testProto.Name(), 0, testCodec{}, testMsg{N: uint64(i), S: "payload"})
		if err != nil {
			t.Fatal(err)
		}
		return len(f)
	}
	// The hello and the first `whole` frames fit; the cut lands halfway
	// through the next one.
	budget := len(appendHello(nil, 0)) + frameLen(whole)/2
	for i := 0; i < whole; i++ {
		budget += frameLen(i)
	}

	dialStarted := make(chan struct{})
	release := make(chan struct{})
	ta := New(newTestExec(t), Config{
		Self:  0,
		Peers: map[mesh.NodeID]string{1: "torn"},
		Dial: func(string) (net.Conn, error) {
			close(dialStarted)
			<-release
			return &brokenConn{budget: budget, closed: make(chan struct{})}, nil
		},
	})
	t.Cleanup(ta.Close)
	chA := make(chan recvd, 64)
	ta.Register(0, testProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	for i := 0; i < frames; i++ {
		ta.Send(0, 1, testProto, 0, testMsg{N: uint64(i), S: "payload"})
		if i == 0 {
			<-dialStarted
		}
	}
	close(release)
	waitDrained(t, ta)

	nacked := make(map[uint64]int)
	for i := whole; i < frames; i++ {
		r := waitRecv(t, chA)
		nack, ok := r.m.(xport.Nack)
		if !ok || nack.Dst != 1 {
			t.Fatalf("expected Nack{Dst:1}, got %T %+v", r.m, r.m)
		}
		nacked[nack.Msg.(testMsg).N]++
	}
	select {
	case r := <-chA:
		t.Fatalf("extra delivery %+v: a frame was nacked twice or a sent frame bounced", r)
	case <-time.After(50 * time.Millisecond):
	}
	for i := whole; i < frames; i++ {
		if nacked[uint64(i)] != 1 {
			t.Errorf("frame %d nacked %d times, want once (nacks: %v)", i, nacked[uint64(i)], nacked)
		}
	}
	st := ta.Stats()
	if st.FramesSent != whole {
		t.Errorf("FramesSent = %d, want the %d frames written whole", st.FramesSent, whole)
	}
	if st.LocalNacks != frames-whole {
		t.Errorf("LocalNacks = %d, want %d", st.LocalNacks, frames-whole)
	}
}

// Page-sized and small frames interleaved over TCP, with a bounce among
// them: every delivered message, and the message a Nack carries back,
// keeps its own bytes. Each connection reads every frame into one reused
// buffer, so a decode that ran after the next read, or a message that
// kept a view of the buffer, would show here as corrupt pages (and under
// -race as a data race).
func TestReusedReadBufferNeverAliasesMessages(t *testing.T) {
	mkNode := func(self mesh.NodeID) (*Transport, chan recvd) {
		tr := New(newTestExec(t), Config{Self: self, Listen: "127.0.0.1:0"})
		if err := tr.Start(); err != nil {
			t.Fatalf("node %d listen: %v", self, err)
		}
		t.Cleanup(tr.Close)
		ch := make(chan recvd, 256)
		tr.Register(self, testProto, func(src mesh.NodeID, m interface{}) { ch <- recvd{src, m} })
		return tr, ch
	}
	ta, chA := mkNode(0)
	tb, chB := mkNode(1)
	ta.AddPeer(1, tb.Addr().String())
	tb.AddPeer(0, ta.Addr().String())
	// Only the sender speaks bounceProto, so node 1 echoes it back.
	ta.Register(0, bounceProto, func(src mesh.NodeID, m interface{}) { chA <- recvd{src, m} })

	page := func(n int) []byte { return bytes.Repeat([]byte{byte(n), byte(n >> 8)}, 4096) }
	const n = 200
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ta.Send(0, 1, testProto, 8192, pageMsg{N: uint64(i), Data: page(i)})
		} else {
			ta.Send(0, 1, testProto, 0, testMsg{N: uint64(i), S: "small"})
		}
		if i == n/2 {
			ta.Send(0, 1, bounceProto, 8192, pageMsg{N: 1 << 20, Data: page(1 << 20)})
		}
	}

	var got []recvd
	for i := 0; i < n; i++ {
		got = append(got, waitRecv(t, chB))
	}
	for i, r := range got {
		switch m := r.m.(type) {
		case pageMsg:
			if m.N != uint64(i) || !bytes.Equal(m.Data, page(i)) {
				t.Fatalf("delivery %d: page %d holds the wrong bytes", i, m.N)
			}
		case testMsg:
			if m.N != uint64(i) || m.S != "small" {
				t.Fatalf("delivery %d: got %+v", i, m)
			}
		default:
			t.Fatalf("delivery %d: unexpected %T", i, r.m)
		}
	}
	r := waitRecv(t, chA)
	nack, ok := r.m.(xport.Nack)
	if !ok {
		t.Fatalf("expected the bounced page back as a Nack, got %T", r.m)
	}
	if pm, ok := nack.Msg.(pageMsg); !ok || !bytes.Equal(pm.Data, page(1<<20)) {
		t.Fatalf("bounced page came back corrupt: %T", nack.Msg)
	}
	if s := tb.Stats(); s.BouncesSent != 1 || s.DecodeErrors != 0 {
		t.Errorf("receiver stats %+v, want one bounce and no decode errors", s)
	}
}
