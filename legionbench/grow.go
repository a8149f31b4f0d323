package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loid"
)

const (
	// growTarget is the jurisdiction size the grow workload builds up
	// to: far larger than the 512-entry client binding cache.
	growTarget = 10_000
	growSetups = 31
	// growHardStop bounds one growth: it always runs to growTarget, so
	// create_growth_x compares the same table sizes from run to run.
	growHardStop = 120 * time.Second
)

// growth is what one growth of a fresh jurisdiction leaves behind.
type growth struct {
	ph         phase
	creates    []time.Duration // Create plus first call, in creation order
	createOnly []time.Duration // the Create part alone
	creating   time.Duration
	createFail int64
}

// runGrow is the grow workload: four hosts, one creator running Create
// plus a first Work call until the jurisdiction holds growTarget
// objects, and one reader calling Work on uniformly random objects that
// already exist while it grows. Growths of fresh jurisdictions repeat
// until the measured phase is used up (the last one runs to its end);
// a traced run makes one growth.
func runGrow(r run) (*report, error) {
	rep := newReport()
	cfg := deployConfig{hosts: 4, clients: 1, workdir: r.workdir, traced: r.trace}
	d, setupS, _, err := setupMedian(growSetups, func() (*deployment, struct{}, error) {
		d, err := boot(cfg)
		return d, struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { d.close() }()
	rep.e2e["setup_s"] = metric{setupS, "s"}

	var (
		phases     []phase
		creates    [][]time.Duration
		creating   time.Duration
		createFail int64
		tr         *tracer
		last       growth
	)
	start := time.Now()
	for g := int64(0); ; g++ {
		if g > 0 {
			d.checkGrowth(rep)
			d.close()
			runtime.GC()
			if d, err = boot(cfg); err != nil {
				return nil, err
			}
		}
		if r.trace {
			tr = startTrace(d)
		}
		last = d.grow(rep, r.seed+g)
		phases = append(phases, last.ph)
		creates = append(creates, last.creates)
		creating += last.creating
		createFail += last.createFail
		if r.trace || time.Since(start) >= r.seconds {
			break
		}
	}
	p50 := rep.callStats(phases...)
	for _, c := range creates {
		rep.attempted += int64(len(c))
	}
	rep.attempted += createFail
	rep.failed += createFail
	if createFail > 0 {
		rep.problem("%d creates (Create plus first call) failed", createFail)
	}
	rep.createStats(creates, creating)
	if r.trace {
		tr.create = last.createOnly
		tr.finish(rep, rep.attempted-rep.failed, p50, r.seed)
		probeFailover(r, rep)
	}
	rep.e2e["heap_mb"] = metric{heapMB(), "MB"}
	d.checkGrowth(rep)
	return rep, nil
}

// grow runs one growth on d to growTarget objects with the reader
// calling alongside, and leaves the objects in d.objects.
func (d *deployment) grow(rep *report, seed int64) growth {
	objs := make([]loid.LOID, growTarget)
	d.checks = make([]counterCheck, growTarget)
	var made atomic.Int64 // objs[:made] are published
	var gr growth
	start := time.Now()
	hardStop := start.Add(growHardStop)
	log := newCallLog(start)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < growTarget && time.Now().Before(hardStop); {
			s, err := d.createOne()
			if err != nil {
				gr.createFail++
				continue
			}
			objs[i] = s.obj
			d.checks[i].note(s.counter)
			gr.creates = append(gr.creates, s.total)
			gr.createOnly = append(gr.createOnly, s.create)
			i++
			made.Store(int64(i))
		}
		gr.creating = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		c := d.clients[0]
		for {
			k := made.Load()
			if k == growTarget || time.Now().After(hardStop) {
				return
			}
			if k == 0 {
				time.Sleep(time.Millisecond)
				continue
			}
			idx := rng.Intn(int(k))
			t0 := time.Now()
			v, err := work(c, objs[idx])
			t1 := time.Now()
			log.add(t1, t1.Sub(t0), err == nil)
			if err == nil {
				d.checks[idx].note(v)
			}
		}
	}()
	wg.Wait()
	gr.ph = phase{[]*callLog{log}, time.Since(start)}
	n := int(made.Load())
	d.objects = objs[:n]
	if n < growTarget {
		rep.problem("grew to %d of %d objects before the hard stop", n, growTarget)
	}
	return gr
}

// checkGrowth checks, after a growth, that every created object answers
// and that its Work results are 1..n.
func (d *deployment) checkGrowth(rep *report) {
	for i, l := range d.objects {
		v, err := work(d.clients[0], l)
		if err != nil {
			rep.problem("object %v does not answer after the growth: %v", l, err)
			return
		}
		d.checks[i].note(v)
	}
	checkCounters(rep, d.objects, d.checks[:len(d.objects)])
}
