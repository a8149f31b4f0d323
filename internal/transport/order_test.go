package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSendOrderPerSender checks the Endpoint ordering contract: frames
// from one sending endpoint to one destination arrive in send order.
// Several goroutines share the sending endpoint and send concurrently;
// each frame carries its goroutine and sequence number, and the
// receiver checks that every goroutine's sequence arrives in order.
func TestSendOrderPerSender(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"mem", NewFabric(nil)},
		{"tcp", &TCP{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := tc.tr.NewEndpoint()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			dst, err := tc.tr.NewEndpoint()
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()

			const senders, per = 4, 2000
			var (
				mu    sync.Mutex
				next  [senders]uint32
				got   int
				bad   string
				allIn = make(chan struct{})
			)
			dst.SetHandler(func(data []byte) {
				g, seq := data[0], binary.BigEndian.Uint32(data[1:])
				mu.Lock()
				defer mu.Unlock()
				if seq != next[g] && bad == "" {
					bad = fmt.Sprintf("sender %d: seq %d, want %d", g, seq, next[g])
				}
				next[g] = seq + 1
				if got++; got == senders*per {
					close(allIn)
				}
			})

			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g byte) {
					defer wg.Done()
					var frame [5]byte
					frame[0] = g
					for seq := uint32(0); seq < per; seq++ {
						binary.BigEndian.PutUint32(frame[1:], seq)
						if err := src.Send(dst.Element(), frame[:]); err != nil {
							t.Error(err)
							return
						}
					}
				}(byte(g))
			}
			wg.Wait()
			select {
			case <-allIn:
			case <-time.After(10 * time.Second):
				mu.Lock()
				n := got
				mu.Unlock()
				t.Fatalf("received %d/%d frames", n, senders*per)
			}
			mu.Lock()
			defer mu.Unlock()
			if bad != "" {
				t.Fatalf("FIFO broken: %s", bad)
			}
		})
	}
}
