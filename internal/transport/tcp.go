package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// maxFrame bounds one TCP frame (matches the wire package's argument
// limits with headroom).
const maxFrame = 32 << 20

// sendQueueDepth bounds the frames queued to one destination's writer;
// a full queue applies backpressure to senders.
const sendQueueDepth = 256

// writerBatch caps how many queued frames one writev gathers. Batching
// amortizes the kernel write; the writer still flushes immediately when
// its queue runs dry, so an isolated message pays no added latency.
const writerBatch = 64

// TCP is a Transport over real TCP sockets, for multi-process Legion
// deployments. Each endpoint owns one listener; messages are
// length-prefixed frames.
//
// A connection carries frames both ways, so two endpoints talking
// request/response share one socket and the kernel's ACKs ride on the
// replies. The dialer writes a hello as the first frame of every
// connection it dials, naming its own listening element; a valid
// hello makes the accepted connection the acceptor's send path to that
// element too, if it has no live one. The first live connection to a
// destination wins and stays its send path until it dies, so the send
// path never switches under queued frames. Two endpoints that dial
// each other at once each keep their own connection: correct, just not
// shared.
//
// Each destination has at most one live connection with one writer,
// so frames reach the socket in SendBuf order and the endpoint keeps
// the FIFO contract of Endpoint.Send. Frame headers and
// reference-counted payload buffers go to the kernel as one writev
// (net.Buffers), so a frame is never copied between the sender and
// the socket. Flushing is adaptive: a sender that finds the socket
// free and nothing queued writes on its own goroutine; otherwise the
// frame joins the queue and the writer coalesces up to writerBatch
// frames per syscall.
//
// Every connection, dialed or accepted, has a read loop delivering
// frames in pooled ref-counted buffers. A connection whose read loop
// ends (EOF, a socket error, a rejected frame) or whose write fails
// retires its writer: the frames it held are counted in
// net/tcp_dropped, and the destination's next Send reports the loss;
// the Send after that redials.
//
// Trust model: the transport is unauthenticated, as it always was. A
// hello can bind a connection only to an element on the socket's own
// remote IP, so a process can take over the replies to another
// endpoint only from that endpoint's own host, and only while the
// acceptor has no live connection to it. A dialer whose socket's local
// IP is not its element's IP (a listener bound to 0.0.0.0, a
// multi-homed host routing through another address) names the
// unspecified IP in its hello, and the acceptor keeps that connection
// receive-only. A first frame that is not a valid hello closes the
// connection undelivered and counts in net/tcp_rejected.
type TCP struct {
	// ListenHost is the host/IP to bind listeners on. Defaults to
	// 127.0.0.1, which keeps tests and examples self-contained.
	ListenHost string
	// Registry receives transport metrics: net/sent (frames accepted
	// for delivery), net/tcp_dials (connection attempts),
	// net/tcp_dropped (outbound frames lost when a destination's
	// connection died or the endpoint closed with them queued) and
	// net/tcp_rejected (inbound connections closed for a bad hello or
	// a zero-length or oversize frame). Nil discards.
	Registry *metrics.Registry
}

// NewEndpoint starts a listener on an ephemeral port.
func (t *TCP) NewEndpoint() (Endpoint, error) {
	host := t.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	reg := t.Registry
	if reg == nil {
		reg = metrics.Nop
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	addr := ln.Addr().(*net.TCPAddr)
	elem, err := oa.IPElement(addr.IP, uint16(addr.Port), 0)
	if err != nil {
		ln.Close()
		return nil, err
	}
	ep := &tcpEndpoint{
		ln:        ln,
		elem:      elem,
		accepted:  make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
		cSent:     reg.Counter("net/sent"),
		cDials:    reg.Counter("net/tcp_dials"),
		cDropped:  reg.Counter("net/tcp_dropped"),
		cRejected: reg.Counter("net/tcp_rejected"),
	}
	go ep.acceptLoop()
	return ep, nil
}

type tcpEndpoint struct {
	ln   net.Listener
	elem oa.Element

	handler atomic.Pointer[FrameHandler]

	// conns maps destination elements to their send-side state. Keyed
	// by the element itself (a comparable value) so the send fast path
	// never formats a host:port string; lock-free once populated.
	conns sync.Map // oa.Element -> *tcpConn

	// amu guards accepted, the inbound sockets currently being read;
	// Close tears them down so a closed endpoint goes fully silent
	// (without this, peers of a dead endpoint would keep writing into
	// still-open sockets and never learn of the death).
	amu      sync.Mutex
	accepted map[net.Conn]struct{}

	cSent  *metrics.Counter // net/sent: frames accepted for delivery
	cDials *metrics.Counter // net/tcp_dials: connection attempts
	// cDropped counts outbound frames lost because a destination's
	// connection died with frames queued or mid-batch (net/tcp_dropped).
	cDropped *metrics.Counter
	// cRejected counts connections closed for a bad hello or a
	// zero-length or oversize frame (net/tcp_rejected).
	cRejected *metrics.Counter

	done chan struct{}
	once sync.Once
}

// tcpConn is the send-side state for one destination: its current
// writer plus the sticky drop count from failed ones.
type tcpConn struct {
	hostport string
	dropped  atomic.Uint64 // frames lost when a writer died; surfaced on the next Send

	mu sync.Mutex
	w  *tcpWriter // nil: not yet dialed (or fell over)
}

// noteDropped records n lost frames against the destination: they are
// counted in net/tcp_dropped immediately and reported to the next Send
// as an error, so the loss is never silent.
func (e *tcpEndpoint) noteDropped(tc *tcpConn, n uint64) {
	if n == 0 {
		return
	}
	e.cDropped.Add(n)
	tc.dropped.Add(n)
}

// tcpWriter is one connection to a destination: a socket, a bounded
// frame queue, and the writer goroutine that drains it.
type tcpWriter struct {
	conn net.Conn
	// wmu serializes socket writes. Frames leave the queue only under
	// wmu, and wmu is held through the write that carries them, so a
	// goroutine holding wmu that sees an empty queue knows every frame
	// queued before it is already in the socket.
	wmu sync.Mutex
	// hdrs, iov and out are the gather list of one write, kept here so
	// a write allocates nothing; guarded by wmu. out is the copy of iov
	// that WriteTo consumes, so iov keeps its backing array.
	hdrs [writerBatch][4]byte
	iov  net.Buffers
	out  net.Buffers
	// wrote is set once the connection has carried a frame of ours.
	wrote atomic.Bool
	ch    chan *buf.Buffer
	wake  chan struct{} // capacity 1: "the queue may be non-empty"
	dead  chan struct{} // closed when this connection fails
	once  sync.Once
}

func newTCPWriter(conn net.Conn) *tcpWriter {
	return &tcpWriter{
		conn: conn,
		iov:  make(net.Buffers, 0, 2*writerBatch),
		ch:   make(chan *buf.Buffer, sendQueueDepth),
		wake: make(chan struct{}, 1),
		dead: make(chan struct{}),
	}
}

func (w *tcpWriter) kill() { w.once.Do(func() { close(w.dead) }) }

// write hands frames to the kernel as one writev, each behind its
// length header; the caller holds wmu. len(frames) <= writerBatch.
func (w *tcpWriter) write(frames ...*buf.Buffer) error {
	w.iov = w.iov[:0]
	for i, b := range frames {
		binary.BigEndian.PutUint32(w.hdrs[i][:], uint32(len(b.B)))
		w.iov = append(w.iov, w.hdrs[i][:], b.B)
	}
	w.out = w.iov
	_, err := w.out.WriteTo(w.conn)
	w.wrote.Store(true)
	return err
}

func (e *tcpEndpoint) Element() oa.Element { return e.elem }

func (e *tcpEndpoint) SetHandler(h Handler) {
	fh := FrameHandler(func(_ *buf.Buffer, data []byte, _ bool) { h(data) })
	e.handler.Store(&fh)
}

func (e *tcpEndpoint) SetFrameHandler(h FrameHandler) {
	e.handler.Store(&h)
}

func (e *tcpEndpoint) acceptLoop() {
	backoff := time.Millisecond
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			// Transient accept failure (e.g. fd exhaustion): back off
			// instead of spinning hot on the error.
			select {
			case <-e.done:
				return
			case <-time.After(backoff):
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		e.amu.Lock()
		if e.closed() {
			// Close has already torn down the accepted set.
			e.amu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = struct{}{}
		e.amu.Unlock()
		go e.readLoop(conn, nil, nil)
	}
}

func (e *tcpEndpoint) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// helloMagic opens the hello, the first frame of every dialed
// connection ("LGHI").
const helloMagic = 0x4C474849

// helloLen is the hello's payload length: the magic, then the dialer's
// element (type, payload).
const helloLen = 4 + oa.ElementSize

// appendHello appends the hello frame naming e to dst.
func appendHello(dst []byte, e oa.Element) []byte {
	dst = binary.BigEndian.AppendUint32(dst, helloLen)
	dst = binary.BigEndian.AppendUint32(dst, helloMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.Type))
	return append(dst, e.Payload[:]...)
}

// hello builds the hello for a connection dialed on conn. It names
// this endpoint's element only when the socket's local IP is the
// element's IP, the one check the acceptor can make; otherwise it names
// the unspecified IP, and the acceptor keeps the connection
// receive-only rather than rejecting it.
func (e *tcpEndpoint) hello(conn net.Conn) []byte {
	claim := e.elem
	if !sameIP(claim, conn.LocalAddr()) {
		copy(claim.Payload[0:4], net.IPv4zero.To4())
	}
	return appendHello(nil, claim)
}

// sameIP reports whether the TypeIP element e names addr's IP.
func sameIP(e oa.Element, addr net.Addr) bool {
	ta, ok := addr.(*net.TCPAddr)
	return ok && ta.IP.Equal(net.IP(e.Payload[0:4]))
}

// helloPeer checks the hello payload p that opened a connection from
// remote. It returns the element to bind the connection to, or the
// zero Element for a valid hello naming the unspecified IP (the
// connection stays receive-only); ok is false for anything else.
func helloPeer(p []byte, remote net.Addr) (peer oa.Element, ok bool) {
	if len(p) != helloLen || binary.BigEndian.Uint32(p) != helloMagic {
		return oa.Element{}, false
	}
	peer.Type = oa.AddrType(binary.BigEndian.Uint32(p[4:]))
	copy(peer.Payload[:], p[8:])
	switch {
	case peer.Type != oa.TypeIP:
		return oa.Element{}, false
	case net.IP(peer.Payload[0:4]).IsUnspecified():
		return oa.Element{}, true
	case !sameIP(peer, remote):
		return oa.Element{}, false
	}
	return peer, true
}

// adopt makes an accepted connection this endpoint's send path to
// peer, unless it already has a live one: the first live connection to
// a destination wins, so its send path never switches under queued
// frames. It returns the destination and the new writer, or nils.
func (e *tcpEndpoint) adopt(peer oa.Element, conn net.Conn) (*tcpConn, *tcpWriter) {
	tc := e.connFor(peer)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.w != nil || e.closed() {
		return nil, nil
	}
	w := newTCPWriter(conn)
	tc.w = w
	go e.writeLoop(tc, w)
	return tc, w
}

// readChunk is the read loop's accumulation window. It matches
// buf.MaxPooled so the window buffer itself recycles through the pool.
const readChunk = buf.MaxPooled

// readLoop drains one connection with coalesced reads: instead of two
// syscalls per frame (header, then payload), it reads whatever the
// socket has — often a full frame, under load many — into one pooled
// window buffer and carves frames out of it as views. Handlers that
// park a frame past their return take a reference on the window
// (Frame.Own), so frame payloads are never copied out of the read
// buffer; the loop moves to a fresh window when parked references pin
// the current one.
//
// tc and w are the destination and writer of a dialed connection; an
// accepted one starts with nils, must open with a hello, and gets them
// if adopt takes it as a send path. When the loop ends it retires w.
func (e *tcpEndpoint) readLoop(conn net.Conn, tc *tcpConn, w *tcpWriter) {
	needHello := w == nil
	defer func() {
		conn.Close()
		e.amu.Lock()
		delete(e.accepted, conn)
		e.amu.Unlock()
		if w != nil {
			// A connection that ends under traffic may take frames
			// with it that the peer had not read, and TCP cannot say
			// how many: count one, so the next Send reports the loss.
			var lost uint64
			if w.wrote.Load() && !e.closed() {
				lost = 1
			}
			e.failWriter(tc, w, lost)
		}
	}()
	rb := buf.GetSize(readChunk)
	defer func() { rb.Release() }()
	start, end := 0, 0 // rb.B[start:end] holds unparsed bytes
	for {
		if start == end {
			// Fully drained. Rewind if we are the only holder; parked
			// frames still viewing this window force a fresh one.
			if rb.Refs() == 1 {
				start, end = 0, 0
			} else {
				rb.Release()
				rb = buf.GetSize(readChunk)
				start, end = 0, 0
			}
		} else if end == len(rb.B) {
			// Out of room with a partial frame in hand: compact it to
			// the front, or — when parked frames pin the window, or the
			// frame is bigger than the window — carry it into a larger
			// fresh buffer.
			need := end - start
			if n := 4 + frameLen(rb.B[start:end]); n > need {
				need = n
			}
			if rb.Refs() == 1 && need <= len(rb.B) {
				copy(rb.B, rb.B[start:end])
			} else {
				size := readChunk
				if need > size {
					size = need
				}
				nb := buf.GetSize(size)
				copy(nb.B, rb.B[start:end])
				rb.Release()
				rb = nb
			}
			end -= start
			start = 0
		}
		n, err := conn.Read(rb.B[end:])
		if n > 0 {
			end += n
			for end-start >= 4 {
				fn := binary.BigEndian.Uint32(rb.B[start:])
				if fn == 0 || fn > maxFrame || (needHello && fn != helloLen) {
					e.cRejected.Inc()
					return
				}
				total := 4 + int(fn)
				if end-start < total {
					break
				}
				p := rb.B[start+4 : start+total]
				start += total
				if needHello {
					needHello = false
					peer, ok := helloPeer(p, conn.RemoteAddr())
					if !ok {
						e.cRejected.Inc()
						return
					}
					if peer.Type != oa.TypeNil {
						tc, w = e.adopt(peer, conn)
					}
					continue
				}
				if h := e.handler.Load(); h != nil {
					(*h)(rb, p, false)
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// frameLen reads the pending frame's payload length from a partial
// region (0 when not even the header has arrived yet).
func frameLen(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(b))
}

// Send copies data into a pooled frame and queues it; SendBuf is the
// zero-copy form.
func (e *tcpEndpoint) Send(to oa.Element, data []byte) error {
	fb := buf.Get()
	fb.B = append(fb.B, data...)
	err := e.SendBuf(to, fb)
	fb.Release()
	return err
}

// SendBuf hands one frame (the whole of b.B) to the destination's
// connection, dialing synchronously when there is no live one (so an
// unreachable destination is still reported to the caller). A queued
// frame holds its own reference on b until the bytes reach the kernel.
func (e *tcpEndpoint) SendBuf(to oa.Element, b *buf.Buffer) error {
	if to.Type != oa.TypeIP {
		return ErrUnreachable
	}
	if len(b.B) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b.B))
	}
	if e.closed() {
		return ErrClosed
	}
	tc := e.connFor(to)
	if n := tc.dropped.Swap(0); n > 0 {
		// A previous writer to this destination died with frames in
		// hand. Surfacing the loss here (instead of dropping silently)
		// lets the rt layer treat the destination as unavailable and
		// retransmit.
		return fmt.Errorf("%w: %d frame(s) to %s lost on connection failure", ErrUnreachable, n, tc.hostport)
	}
	w, err := e.writerFor(tc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	// Adaptive flush, idle half: with the socket free and nothing
	// queued, every earlier frame is already in the socket, so writing
	// here on the sender's goroutine keeps order and skips two
	// scheduler handoffs. Otherwise the frame joins the queue behind
	// the ones it must follow.
	if w.wmu.TryLock() {
		if len(w.ch) == 0 {
			err := w.write(b)
			w.wmu.Unlock()
			if err != nil {
				// The socket died under us mid-frame; the stream may be
				// truncated, so this connection is done. The loss is
				// counted and reported to THIS send directly.
				e.cDropped.Add(1)
				e.failWriter(tc, w, 0)
				return fmt.Errorf("%w: %v", ErrUnreachable, err)
			}
			e.cSent.Inc()
			return nil
		}
		w.wmu.Unlock()
	}
	ref := b.Retain()
	select {
	case w.ch <- ref:
	case <-w.dead:
		ref.Release()
		return fmt.Errorf("%w: connection to %s failed", ErrUnreachable, tc.hostport)
	}
	select {
	case w.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	select {
	case <-w.dead:
		// The connection failed as the frame went in, perhaps after
		// failWriter drained the queue: drain again so the frame is
		// counted and reported, not stranded.
		e.noteDropped(tc, w.drain())
	default:
	}
	e.cSent.Inc()
	return nil
}

// writerFor returns the destination's live writer, dialing a new
// connection (and starting its writer and read loop) if none exists.
func (e *tcpEndpoint) writerFor(tc *tcpConn) (*tcpWriter, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.w != nil {
		return tc.w, nil
	}
	if e.closed() {
		return nil, ErrClosed // Close has retired, or will skip, this destination
	}
	e.cDials.Inc()
	conn, err := net.Dial("tcp", tc.hostport)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(e.hello(conn)); err != nil {
		conn.Close()
		return nil, err
	}
	w := newTCPWriter(conn)
	tc.w = w
	go e.writeLoop(tc, w)
	go e.readLoop(conn, tc, w)
	return w, nil
}

// writeLoop drains one connection's queue. On each wake-up it takes
// whatever is queued (up to writerBatch frames) under wmu, hands the
// length headers and payload buffers to the kernel as one writev while
// still holding wmu, and repeats until the queue is dry. The gather is
// adaptive — a lone frame goes out immediately; a busy queue means one
// syscall carries many frames. A write error retires the connection.
func (e *tcpEndpoint) writeLoop(tc *tcpConn, w *tcpWriter) {
	batch := make([]*buf.Buffer, 0, writerBatch)
	for {
		select {
		case <-w.wake:
		case <-w.dead:
			// A failed direct write or Close retired this connection;
			// drain what is still queued so the loss is counted.
			e.failWriter(tc, w, 0)
			return
		}
		for {
			w.wmu.Lock()
			batch = batch[:0]
		gather:
			for len(batch) < writerBatch {
				select {
				case fb := <-w.ch:
					batch = append(batch, fb)
				default:
					break gather
				}
			}
			if len(batch) == 0 {
				w.wmu.Unlock()
				break
			}
			err := w.write(batch...)
			w.wmu.Unlock()
			for _, b := range batch {
				b.Release()
			}
			if err != nil {
				// The batch's frames may not have reached the peer (the
				// socket died mid-writev): account them as dropped — TCP
				// gives no delivery receipt, and an undercounted loss is
				// a silent one.
				e.noteDropped(tc, uint64(len(batch)))
				e.failWriter(tc, w, 0)
				return
			}
		}
	}
}

// failWriter retires a connection that failed or whose endpoint
// closed: unhooks it so the next Send redials, closes the socket, and
// drains queued frames. The drained frames cannot be delivered, but
// the loss is NOT silent: each is counted in net/tcp_dropped and
// reported to the destination's next Send as an error, so callers
// learn the channel lost traffic. lost more frames are counted if this
// call is the one that unhooks w; they are counted before the unhook
// is seen, so a Send that finds no writer also finds the loss.
func (e *tcpEndpoint) failWriter(tc *tcpConn, w *tcpWriter, lost uint64) {
	tc.mu.Lock()
	if tc.w == w {
		e.noteDropped(tc, lost)
		tc.w = nil
	}
	tc.mu.Unlock()
	w.kill()
	w.conn.Close()
	e.noteDropped(tc, w.drain())
}

// drain releases every queued frame and returns how many there were.
func (w *tcpWriter) drain() uint64 {
	var n uint64
	for {
		select {
		case fb := <-w.ch:
			fb.Release()
			n++
		default:
			return n
		}
	}
}

func (e *tcpEndpoint) connFor(to oa.Element) *tcpConn {
	if v, ok := e.conns.Load(to); ok {
		return v.(*tcpConn)
	}
	hostport, _ := oa.IPHostPort(to) // to.Type checked by the caller
	v, _ := e.conns.LoadOrStore(to, &tcpConn{hostport: hostport})
	return v.(*tcpConn)
}

func (e *tcpEndpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		e.ln.Close()
		e.amu.Lock()
		for conn := range e.accepted {
			conn.Close()
		}
		e.amu.Unlock()
		e.conns.Range(func(_, v any) bool {
			tc := v.(*tcpConn)
			tc.mu.Lock()
			w := tc.w
			tc.mu.Unlock()
			if w != nil {
				e.failWriter(tc, w, 0)
			}
			return true
		})
	})
	return nil
}
