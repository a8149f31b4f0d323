package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/oa"
)

// collector accumulates received messages behind a lock and signals
// arrivals on a channel.
type collector struct {
	mu   sync.Mutex
	msgs [][]byte
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) handler(data []byte) {
	// The Handler contract only lends the buffer for the call; copy.
	c.mu.Lock()
	c.msgs = append(c.msgs, append([]byte(nil), data...))
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.msgs))
	copy(out, c.msgs)
	return out
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(b.Element(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "hello" {
		t.Errorf("got %q", msgs[0])
	}
}

func TestFabricCopiesBuffer(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	buf := []byte("original")
	a.Send(b.Element(), buf)
	copy(buf, "MUTATED!")
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "original" {
		t.Errorf("sender mutation visible to receiver: %q", msgs[0])
	}
}

func TestFabricUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	if err := a.Send(oa.MemElement(9999), []byte("x")); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if err := a.Send(oa.Element{Type: oa.TypeIP}, []byte("x")); err != ErrUnreachable {
		t.Errorf("wrong element type: err = %v", err)
	}
}

func TestFabricClosedEndpointUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	b.Close()
	if err := a.Send(b.Element(), []byte("x")); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if f.Endpoints() != 1 {
		t.Errorf("Endpoints = %d, want 1", f.Endpoints())
	}
}

func TestFabricPartition(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	aID, _ := oa.MemID(a.Element())
	bID, _ := oa.MemID(b.Element())
	f.Block(aID, bID)
	if err := a.Send(b.Element(), []byte("x")); err != ErrUnreachable {
		t.Fatalf("partitioned send err = %v", err)
	}
	f.Unblock(aID, bID)
	if err := a.Send(b.Element(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
}

func TestFabricLoss(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFabric(reg)
	defer f.Close()
	f.SetLoss(1.0, 42) // drop everything
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Element(), []byte("x")); err != nil {
			t.Fatal(err) // loss is silent, not an error
		}
	}
	if got := reg.Counter("net/dropped").Value(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
	select {
	case <-col.ch:
		t.Error("message delivered despite 100% loss")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFabricLatency(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	f.SetLatency(30 * time.Millisecond)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	start := time.Now()
	a.Send(b.Element(), []byte("x"))
	col.wait(t, 1)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delivered in %v, want >= ~30ms", d)
	}
}

func TestFabricManyMessagesConcurrent(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	dst, _ := f.NewEndpoint()
	col := newCollector()
	dst.SetHandler(col.handler)
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, _ := f.NewEndpoint()
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Send(dst.Element(), []byte{byte(i)})
			}
		}(ep)
	}
	wg.Wait()
	msgs := col.wait(t, senders*per)
	if len(msgs) != senders*per {
		t.Errorf("received %d, want %d", len(msgs), senders*per)
	}
}

func TestFabricCloseRejectsNewEndpoints(t *testing.T) {
	f := NewFabric(nil)
	f.Close()
	if _, err := f.NewEndpoint(); err != ErrClosed {
		t.Errorf("NewEndpoint after close: %v", err)
	}
}

func TestTCPDelivery(t *testing.T) {
	tr := &TCP{}
	a, err := tr.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tr.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(b.Element(), []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "over tcp" {
		t.Errorf("got %q", msgs[0])
	}
}

func TestTCPBidirectionalAndReuse(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := &TCP{Registry: reg}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)
	for i := 0; i < 20; i++ {
		if err := a.Send(b.Element(), []byte("ping")); err != nil {
			t.Fatal(err)
		}
		colB.wait(t, 1)
		if err := b.Send(a.Element(), []byte("pong")); err != nil {
			t.Fatal(err)
		}
		colA.wait(t, 1)
	}
	// Counted like the fabric's net/sent. a's hello made the connection
	// it dialed b's send path back to a, so request/response traffic
	// between the two dials once.
	if got := reg.Counter("net/sent").Value(); got != 40 {
		t.Errorf("net/sent = %d, want 40", got)
	}
	if got := reg.Counter("net/tcp_dials").Value(); got != 1 {
		t.Errorf("net/tcp_dials = %d, want 1", got)
	}
}

// TestTCPBothSendFirst has two endpoints send to each other before
// either has read a frame, so both may dial. Each keeps its own
// connection then; every frame must still arrive, in order.
func TestTCPBothSendFirst(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := &TCP{Registry: reg}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	const per = 200
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, p := range [][2]Endpoint{{a, b}, {b, a}} {
		wg.Add(1)
		go func(from, to Endpoint) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				if err := from.Send(to.Element(), []byte{byte(i >> 8), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p[0], p[1])
	}
	close(start)
	wg.Wait()
	for name, col := range map[string]*collector{"a": colA, "b": colB} {
		for i, m := range col.wait(t, per) {
			if got := int(m[0])<<8 | int(m[1]); got != i {
				t.Fatalf("%s: frame %d carries %d", name, i, got)
			}
		}
	}
	if got := reg.Counter("net/tcp_dials").Value(); got > 2 {
		t.Errorf("net/tcp_dials = %d, want <= 2", got)
	}
}

// TestTCPRejectsBadFirstFrames dials an endpoint with raw sockets. A
// connection must open with a valid hello and carry no zero-length
// frame; otherwise it is closed, nothing on it is delivered, and
// net/tcp_rejected counts it.
func TestTCPRejectsBadFirstFrames(t *testing.T) {
	frame := func(p []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
	}
	local, _ := oa.IPElement(net.IPv4(127, 0, 0, 1), 4242, 0)
	other, _ := oa.IPElement(net.IPv4(10, 9, 8, 7), 4242, 0)
	badMagic := appendHello(nil, local)
	badMagic[4] ^= 0xff
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"no hello", frame([]byte("data"))},
		{"bad magic", badMagic},
		{"not an IP element", appendHello(nil, oa.MemElement(7))},
		{"claimed IP differs", appendHello(nil, other)},
		{"zero-length frame", append(appendHello(nil, local), 0, 0, 0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			ep, err := (&TCP{Registry: reg}).NewEndpoint()
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			col := newCollector()
			ep.SetHandler(col.handler)
			hp, _ := oa.IPHostPort(ep.Element())
			conn, err := net.Dial("tcp", hp)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// A frame behind the bad input must not be delivered either.
			if _, err := conn.Write(append(tc.in, frame([]byte("after"))...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection not closed: read %d bytes, err %v", n, err)
			}
			if got := reg.Counter("net/tcp_rejected").Value(); got != 1 {
				t.Errorf("net/tcp_rejected = %d, want 1", got)
			}
			select {
			case <-col.ch:
				t.Errorf("delivered %q", col.msgs[0])
			default:
			}
		})
	}
}

// TestTCPUnspecifiedHelloReceiveOnly checks that a hello naming the
// unspecified IP (a dialer that cannot vouch for its element) is
// accepted but binds nothing: frames are delivered, and a send back
// to that element does not use the connection.
func TestTCPUnspecifiedHelloReceiveOnly(t *testing.T) {
	reg := metrics.NewRegistry()
	ep, err := (&TCP{Registry: reg}).NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	col := newCollector()
	ep.SetHandler(col.handler)
	hp, _ := oa.IPHostPort(ep.Element())
	conn, err := net.Dial("tcp", hp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	port := uint16(conn.LocalAddr().(*net.TCPAddr).Port)
	anon, _ := oa.IPElement(net.IPv4zero, port, 0)
	msg := binary.BigEndian.AppendUint32(appendHello(nil, anon), 4)
	if _, err := conn.Write(append(msg, "data"...)); err != nil {
		t.Fatal(err)
	}
	if got := col.wait(t, 1); string(got[0]) != "data" {
		t.Errorf("got %q", got[0])
	}
	if got := reg.Counter("net/tcp_rejected").Value(); got != 0 {
		t.Errorf("net/tcp_rejected = %d, want 0", got)
	}
	if err := ep.Send(anon, []byte("x")); err == nil {
		t.Error("send to the unspecified element went out on the receive-only connection")
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	// A port that nothing listens on: allocate and immediately close.
	dead, _ := tr.NewEndpoint()
	deadElem := dead.Element()
	dead.Close()
	time.Sleep(10 * time.Millisecond)
	err := a.Send(deadElem, []byte("x"))
	if err == nil {
		t.Error("send to closed endpoint succeeded")
	}
	if err := a.Send(oa.MemElement(1), []byte("x")); err != ErrUnreachable {
		t.Errorf("mem element over tcp: %v", err)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(b.Element(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	b.Close()
	time.Sleep(20 * time.Millisecond)
	// First send may fail (cached conn broken + listener gone): either
	// an error now or success into a void is acceptable, but it must
	// not hang or panic.
	a.Send(b.Element(), []byte("2"))
	a.Send(b.Element(), []byte("3"))
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	a.Close()
	if err := a.Send(b.Element(), []byte("x")); err == nil {
		t.Error("send from closed endpoint succeeded")
	}
}

func TestTCPRejectsOversizeFrame(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	huge := make([]byte, maxFrame+1)
	if err := a.Send(b.Element(), huge); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestFabricSendAfterFabricClose(t *testing.T) {
	f := NewFabric(nil)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	f.Close()
	if err := a.Send(b.Element(), []byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestEndpointCloseIdempotent(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	tr := &TCP{}
	e, _ := tr.NewEndpoint()
	e.Close()
	e.Close()
}
