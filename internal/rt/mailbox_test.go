package rt

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestMailboxFIFOAndBound fills a mailbox to its bound through ring
// growth, checks that a further put waits for room and that frames
// come out in arrival order, and that close hands back what is queued
// and refuses the rest.
func TestMailboxFIFOAndBound(t *testing.T) {
	m := newMailbox()
	never := make(chan struct{})
	frames := make([]*wire.Frame, mailboxDepth+1)
	for i := range frames {
		frames[i] = new(wire.Frame)
	}
	for _, f := range frames[:mailboxDepth] {
		if !m.put(f, never) {
			t.Fatal("put refused below the bound")
		}
	}
	if m.tryPut(frames[mailboxDepth]) {
		t.Fatal("tryPut accepted a frame past the bound")
	}
	putDone := make(chan bool)
	go func() { putDone <- m.put(frames[mailboxDepth], never) }()
	select {
	case <-putDone:
		t.Fatal("put on a full mailbox did not wait")
	case <-time.After(20 * time.Millisecond):
	}
	<-m.ready
	if f := m.take(); f != frames[0] {
		t.Fatal("take did not return the oldest frame")
	}
	if !<-putDone {
		t.Fatal("waiting put failed after room was made")
	}
	for i := 1; i <= mailboxDepth/2; i++ {
		<-m.ready
		if f := m.take(); f != frames[i] {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if got := m.close(); len(got) != mailboxDepth/2 || got[0] != frames[mailboxDepth/2+1] || got[len(got)-1] != frames[mailboxDepth] {
		t.Fatalf("close returned %d frames, want the %d still queued in order", len(got), mailboxDepth/2)
	}
	if m.put(new(wire.Frame), never) || m.tryPut(new(wire.Frame)) {
		t.Fatal("closed mailbox accepted a frame")
	}
	<-m.ready
	if m.take() != nil {
		t.Fatal("take after close returned a frame")
	}
}

// TestMailboxPutGivesUpOnDone checks that a sender waiting on a full
// mailbox is released when the object stops.
func TestMailboxPutGivesUpOnDone(t *testing.T) {
	m := newMailbox()
	never, done := make(chan struct{}), make(chan struct{})
	for range mailboxDepth {
		m.put(new(wire.Frame), never)
	}
	putDone := make(chan bool)
	go func() { putDone <- m.put(new(wire.Frame), done) }()
	close(done)
	if <-putDone {
		t.Fatal("put on a full mailbox succeeded after done")
	}
	if m.len() != mailboxDepth {
		t.Fatalf("len = %d, want %d", m.len(), mailboxDepth)
	}
}

// TestMailboxConcurrent runs several senders past the bound against
// several workers, as a concurrent object's mailbox sees it: every
// frame is taken exactly once and no sender is left waiting.
func TestMailboxConcurrent(t *testing.T) {
	m := newMailbox()
	never := make(chan struct{})
	const senders, each, workers = 8, 600, 3
	var sent sync.WaitGroup
	for s := 0; s < senders; s++ {
		sent.Add(1)
		go func() {
			defer sent.Done()
			for i := 0; i < each; i++ {
				if !m.put(new(wire.Frame), never) {
					t.Error("put refused on an open mailbox")
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the senders fill the mailbox
	var mu sync.Mutex
	seen := make(map[*wire.Frame]bool, senders*each)
	all, stop := make(chan struct{}), make(chan struct{})
	var workersDone sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersDone.Add(1)
		go func() {
			defer workersDone.Done()
			for {
				select {
				case <-m.ready:
				case <-stop:
					return
				}
				f := m.take()
				mu.Lock()
				if f == nil || seen[f] {
					t.Error("take returned nil or a frame twice")
				}
				seen[f] = true
				if len(seen) == senders*each {
					close(all)
				}
				mu.Unlock()
			}
		}()
	}
	sent.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Error("workers did not drain every frame")
	}
	close(stop)
	workersDone.Wait()
}
