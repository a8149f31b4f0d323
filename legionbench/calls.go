package main

import (
	"sync"
	"time"
)

// window is the slice of the measured phase that call metrics are
// computed over; each call metric is the median over the run's windows,
// so one disturbed second does not move a run's figure.
const window = time.Second

// callLog collects call latencies by the window in which each call
// completed. It is safe for concurrent use.
type callLog struct {
	start time.Time

	mu   sync.Mutex
	wins []winLog
}

type winLog struct {
	lat      []time.Duration
	ok, fail int64
}

func newCallLog(start time.Time) *callLog { return &callLog{start: start} }

// add records one call that completed at end after taking d.
func (l *callLog) add(end time.Time, d time.Duration, ok bool) {
	w := int(end.Sub(l.start) / window)
	l.mu.Lock()
	for len(l.wins) <= w {
		hint := 1024
		if n := len(l.wins); n > 0 {
			hint = len(l.wins[n-1].lat) * 5 / 4
		}
		l.wins = append(l.wins, winLog{lat: make([]time.Duration, 0, hint)})
	}
	wl := &l.wins[w]
	wl.lat = append(wl.lat, d)
	if ok {
		wl.ok++
	} else {
		wl.fail++
	}
	l.mu.Unlock()
}

// phase is a stretch of measured calls: the callers' logs, which share
// a start time, and how long the phase ran.
type phase struct {
	logs    []*callLog
	elapsed time.Duration
}

// callStats fills the call metrics shared by every workload from the
// measured phases: each metric is the median over all the phases'
// windows. A trailing window shorter than half a window is left out of
// the medians, not out of the attempted and failed counts. It returns
// the median call latency.
func (r *report) callStats(phases ...phase) time.Duration {
	var rates, p50s, p95s, p99s []float64
	for _, ph := range phases {
		nWin := int(ph.elapsed / window)
		if ph.elapsed%window >= window/2 || nWin == 0 {
			nWin++
		}
		for w := 0; ; w++ {
			var lat []time.Duration
			var ok, all int64
			more := false
			for _, l := range ph.logs {
				if w < len(l.wins) {
					more = true
					wl := &l.wins[w]
					lat = append(lat, wl.lat...)
					ok += wl.ok
					all += wl.ok + wl.fail
				}
			}
			if !more {
				break
			}
			r.attempted += all
			r.failed += all - ok
			if w >= nWin || all == 0 {
				continue
			}
			span := window
			if rest := ph.elapsed - time.Duration(w)*window; rest < span {
				span = rest
			}
			sortDur(lat)
			rates = append(rates, float64(ok)/span.Seconds())
			p50s = append(p50s, us(pct(lat, 0.50)))
			p95s = append(p95s, us(pct(lat, 0.95)))
			p99s = append(p99s, us(pct(lat, 0.99)))
		}
	}
	r.layers["calls.per_s"] = metric{median(rates), "1/s"}
	r.e2e["call_p50_us"] = metric{median(p50s), "us"}
	r.e2e["call_p95_us"] = metric{median(p95s), "us"}
	r.layers["calls.p99_us"] = metric{median(p99s), "us"}
	return time.Duration(median(p50s) * float64(time.Microsecond))
}
