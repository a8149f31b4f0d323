package rt

import (
	"sync"

	"repro/internal/wire"
)

// mailboxDepth bounds each object's queue of unprocessed messages.
const mailboxDepth = 1024

// mailbox is an object's FIFO of frames awaiting dispatch, bounded at
// mailboxDepth. Its ring starts small and doubles on demand, so an idle
// object holds a few slots rather than the whole bound: a channel of
// mailboxDepth frame pointers cost every object 8 KiB, allocated at
// Spawn and scanned by every garbage collection.
type mailbox struct {
	mu      sync.Mutex
	ring    []*wire.Frame // length is a power of two
	head, n int
	closed  bool
	waiters int // senders waiting for room

	// ready carries one token per queued frame, sent after the frame is
	// queued, so a worker that takes a token finds a frame (or none,
	// once close has drained the queue). Its elements are empty: the
	// capacity costs no memory, and a send never blocks.
	ready chan struct{}
	room  chan struct{} // wakes a waiting sender
}

func newMailbox() *mailbox {
	return &mailbox{
		ring:  make([]*wire.Frame, 4),
		ready: make(chan struct{}, mailboxDepth),
		room:  make(chan struct{}, 1),
	}
}

// put queues f, waiting while the mailbox is full. It returns false
// without queueing f once the mailbox is closed or done fires first.
func (m *mailbox) put(f *wire.Frame, done <-chan struct{}) bool {
	m.mu.Lock()
	for !m.closed && m.n == mailboxDepth {
		m.waiters++
		m.mu.Unlock()
		select {
		case <-m.room:
		case <-done:
			m.mu.Lock()
			m.waiters--
			m.mu.Unlock()
			return false
		}
		m.mu.Lock()
		m.waiters--
	}
	ok := m.pushLocked(f)
	if ok && m.waiters > 0 && m.n < mailboxDepth {
		m.wakeSender() // room remains: pass the wake-up on
	}
	m.mu.Unlock()
	if ok {
		m.ready <- struct{}{}
	}
	return ok
}

// tryPut queues f unless the mailbox is full or closed.
func (m *mailbox) tryPut(f *wire.Frame) bool {
	m.mu.Lock()
	ok := m.n < mailboxDepth && m.pushLocked(f)
	m.mu.Unlock()
	if ok {
		m.ready <- struct{}{}
	}
	return ok
}

func (m *mailbox) pushLocked(f *wire.Frame) bool {
	if m.closed {
		return false
	}
	if m.n == len(m.ring) {
		grown := make([]*wire.Frame, 2*len(m.ring))
		for i := range m.n {
			grown[i] = m.ring[(m.head+i)&(len(m.ring)-1)]
		}
		m.ring, m.head = grown, 0
	}
	m.ring[(m.head+m.n)&(len(m.ring)-1)] = f
	m.n++
	return true
}

func (m *mailbox) popLocked() *wire.Frame {
	f := m.ring[m.head]
	m.ring[m.head] = nil
	m.head = (m.head + 1) & (len(m.ring) - 1)
	m.n--
	return f
}

// take removes the oldest frame, or returns nil if close drained it.
// Call it once per token received from ready.
func (m *mailbox) take() *wire.Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return nil
	}
	if m.waiters > 0 {
		m.wakeSender()
	}
	return m.popLocked()
}

func (m *mailbox) wakeSender() {
	select {
	case m.room <- struct{}{}:
	default:
	}
}

// close refuses further frames and returns the queued ones. Senders
// still waiting for room are released by the done channel they passed
// to put, which the object closes first.
func (m *mailbox) close() []*wire.Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	out := make([]*wire.Frame, 0, m.n)
	for m.n > 0 {
		out = append(out, m.popLocked())
	}
	return out
}

// len reports the number of queued frames.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
