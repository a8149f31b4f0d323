// Package wire defines the Legion message protocol: non-blocking method
// invocations between address-space disjoint objects (§2). A message
// carries the target LOID, the method name, encoded arguments, a
// correlation id, the reply address, and the security environment
// triple of (Responsible Agent, Security Agent, Calling Agent) in which
// every method invocation is performed (§2.4).
package wire

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/loid"
	"repro/internal/oa"
)

// Kind distinguishes the three message shapes.
type Kind uint8

const (
	// KindRequest asks the target to run a method and reply.
	KindRequest Kind = 1
	// KindReply carries the results of a request.
	KindReply Kind = 2
	// KindOneWay asks the target to run a method with no reply
	// expected (the paper's methods with no return value).
	KindOneWay Kind = 3
)

// Code classifies reply outcomes. The communication layer uses these to
// drive retry/refresh behaviour (§4.1.4: stale addresses are detected by
// the Legion communication layer, which then requests a refresh).
type Code uint16

const (
	// OK: the method ran; Results are valid.
	OK Code = 0
	// ErrApp: the method ran and returned an application-level error.
	ErrApp Code = 1
	// ErrNoSuchMethod: the target exports no such member function.
	ErrNoSuchMethod Code = 2
	// ErrNoSuchObject: the endpoint exists but no longer hosts the
	// target — the sender's binding is stale.
	ErrNoSuchObject Code = 3
	// ErrDenied: the target's MayI refused the invocation (§2.4).
	ErrDenied Code = 4
	// ErrUnavailable: the endpoint could not be reached at all.
	ErrUnavailable Code = 5
	// ErrBadRequest: the message was malformed or arguments failed to
	// decode.
	ErrBadRequest Code = 6
	// ErrDeadlineExceeded: the invocation's propagated deadline expired
	// before the method could run (or before a reply arrived). The
	// answer is definitive — retrying cannot help, the budget is gone.
	ErrDeadlineExceeded Code = 7
)

// Retryable reports reply codes that mean "try another replica or a
// refreshed binding" rather than a definitive answer (§4.1.4, §4.3).
// Every Code constant must appear here explicitly: a new code that is
// not classified is a bug, and the table test in wire_test.go enforces
// the enumeration so an addition cannot silently default wrong.
func Retryable(c Code) bool {
	switch c {
	case ErrNoSuchObject, ErrUnavailable:
		// The endpoint no longer hosts the target / could not be
		// reached: another replica or a refreshed binding may succeed.
		return true
	case OK, ErrApp, ErrNoSuchMethod, ErrDenied, ErrBadRequest, ErrDeadlineExceeded:
		// The target answered (or the budget is spent): definitive.
		return false
	default:
		// Unknown codes are treated as definitive so a protocol
		// extension cannot cause retry storms against old peers.
		return false
	}
}

func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case ErrApp:
		return "app-error"
	case ErrNoSuchMethod:
		return "no-such-method"
	case ErrNoSuchObject:
		return "no-such-object"
	case ErrDenied:
		return "denied"
	case ErrUnavailable:
		return "unavailable"
	case ErrBadRequest:
		return "bad-request"
	case ErrDeadlineExceeded:
		return "deadline-exceeded"
	default:
		return fmt.Sprintf("code%d", uint16(c))
	}
}

// Env is the security environment triple in which a method invocation
// is performed (§2.4): the operative Responsible Agent, Security Agent,
// and Calling Agent.
type Env struct {
	Responsible loid.LOID
	Security    loid.LOID
	Calling     loid.LOID
	// Deadline is the invocation's absolute deadline in Unix
	// nanoseconds (0 = none). It rides the environment so nested calls
	// made on behalf of this invocation inherit the remaining budget
	// instead of each hop arming an independent full timer.
	Deadline int64
	// TraceID/SpanID/ParentSpanID (v3) carry the distributed-tracing
	// identity of the caller's span, so the serving side can parent its
	// own span causally. All-zero means the invocation is not traced.
	TraceID      uint64
	SpanID       uint64
	ParentSpanID uint64
}

// Message is one Legion protocol unit.
type Message struct {
	Kind   Kind
	ID     uint64    // request/reply correlation id
	Target loid.LOID // destination object
	Method string    // member function name (requests only)
	Env    Env
	// ReplyTo is the Object Address of the sender's endpoint, used to
	// route the reply (requests only).
	ReplyTo oa.Address
	// Args carries encoded parameters (requests) or results (replies).
	Args [][]byte
	// Code and ErrText describe reply outcomes.
	Code    Code
	ErrText string
}

const (
	magic = 0x4C47 // "LG"
	// version is what we emit and the only version we decode: the
	// fixed-offset zero-copy layout (see frame.go). The length-prefixed
	// v2/v3 envelopes it replaced are rejected.
	version = 4
)

// maxArgs bounds the argument vector; generous but prevents a corrupt
// length from allocating unboundedly.
const maxArgs = 1 << 16

// maxArgLen bounds one argument (16 MiB).
const maxArgLen = 16 << 20

// Buf is a pooled marshal buffer. The invocation fast path marshals
// every request, reply, and one-way into a Buf and recycles it once the
// transport has taken its copy, so steady-state traffic does not
// allocate a fresh buffer per message.
type Buf struct {
	B []byte
}

// maxPooledBuf caps what Put keeps: a huge argument blob should not pin
// its buffer in the pool forever.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{
	New: func() any { return &Buf{B: make([]byte, 0, 1024)} },
}

// GetBuf returns a pooled buffer with zero length and non-trivial
// capacity. Callers marshal into b.B and must call b.Put when the bytes
// are no longer referenced.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Put recycles the buffer. The caller must not touch b or b.B after.
func (b *Buf) Put() {
	if cap(b.B) > maxPooledBuf {
		b.B = make([]byte, 0, 1024)
	}
	bufPool.Put(b)
}

// Marshal appends the binary encoding of m to dst.
func (m *Message) Marshal(dst []byte) []byte { return m.AppendMarshal(dst) }

// AppendMarshal appends the binary encoding of m to dst and returns the
// extended slice. It is the allocation-transparent form used with
// pooled buffers (GetBuf/Put).
func (m *Message) AppendMarshal(dst []byte) []byte {
	return appendV4(dst, m.Kind, m.ID, m.Code, m.Target, m.Method,
		&m.Env, m.ReplyTo, m.ErrText, m.Args)
}

// Unmarshal decodes one message from src; the whole of src must be the
// message (transports frame messages themselves). It is the eager,
// copy-everything decode built on the lazy Frame parser — callers that
// only need a few fields use Frame directly.
func Unmarshal(src []byte) (*Message, error) {
	var f Frame
	if err := f.Parse(src); err != nil {
		return nil, err
	}
	m := &Message{
		Kind:    f.Kind,
		ID:      f.ID,
		Target:  f.Target(),
		Method:  string(f.MethodBytes()),
		Env:     f.Env(),
		ReplyTo: f.ReplyToAddress(),
		Code:    f.Code,
		ErrText: f.ErrText(),
		Args:    f.CopyArgs(),
	}
	return m, nil
}

// ReplyTo builds the reply message for request m with the given outcome.
func (m *Message) Reply(code Code, errText string, results [][]byte) *Message {
	return &Message{
		Kind:    KindReply,
		ID:      m.ID,
		Target:  m.Env.Calling,
		Code:    code,
		ErrText: errText,
		Args:    results,
	}
}

func (m *Message) String() string {
	switch m.Kind {
	case KindRequest:
		return fmt.Sprintf("req#%d %v.%s(%d args)", m.ID, m.Target, m.Method, len(m.Args))
	case KindOneWay:
		return fmt.Sprintf("oneway#%d %v.%s(%d args)", m.ID, m.Target, m.Method, len(m.Args))
	case KindReply:
		return fmt.Sprintf("rep#%d %v %s", m.ID, m.Code, m.ErrText)
	default:
		return fmt.Sprintf("msg#%d kind%d", m.ID, m.Kind)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeString(src []byte) (string, []byte, error) {
	if len(src) < 4 {
		return "", src, fmt.Errorf("short string length")
	}
	n := binary.BigEndian.Uint32(src[:4])
	src = src[4:]
	if n > maxArgLen {
		return "", src, fmt.Errorf("string length %d exceeds limit", n)
	}
	if uint32(len(src)) < n {
		return "", src, fmt.Errorf("short string body")
	}
	return string(src[:n]), src[n:], nil
}
