package main

import (
	"math/rand"
	"sync"
	"time"
)

const (
	invokeObjects = 256 // fits the default 512-entry client binding cache
	invokeZipfS   = 1.1
	invokeSetups  = 31 // set-up rounds: each adds invokeObjects create samples
)

// populated is what one set-up round leaves behind.
type populated struct {
	creates  []createSample
	creating time.Duration
}

// populate creates n objects (each Create plus a first Work call) and
// then warms every client's binding cache with one call per object.
func (d *deployment) populate(n int) (populated, error) {
	var p populated
	d.checks = make([]counterCheck, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s, err := d.createOne()
		if err != nil {
			return p, err
		}
		d.objects = append(d.objects, s.obj)
		p.creates = append(p.creates, s)
		d.checks[i].note(s.counter)
	}
	p.creating = time.Since(t0)
	for _, c := range d.clients {
		for i, l := range d.objects {
			v, err := work(c, l)
			if err != nil {
				return p, err
			}
			d.checks[i].note(v)
		}
	}
	return p, nil
}

// runInvoke is invoke-mem and invoke-tcp: two hosts, one class, 256
// objects, two closed-loop callers each waiting on one call at a time,
// zipf-distributed targets, default mailbox dispatch.
func runInvoke(r run, tcp bool) (*report, error) {
	rep := newReport()
	cfg := deployConfig{tcp: tcp, hosts: 2, clients: 2, workdir: r.workdir, traced: r.trace}
	d, setupS, rounds, err := setupMedian(invokeSetups, func() (*deployment, populated, error) {
		d, err := boot(cfg)
		if err != nil {
			return nil, populated{}, err
		}
		p, err := d.populate(invokeObjects)
		if err != nil {
			d.close()
		}
		return d, p, err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	rep.e2e["setup_s"] = metric{setupS, "s"}
	createOnly := rep.createRounds(rounds)

	// The zipf ranks map onto objects through a seeded permutation, so
	// the hot objects differ from seed to seed.
	perm := rand.New(rand.NewSource(r.seed)).Perm(invokeObjects)
	var tr *tracer
	if r.trace {
		tr = startTrace(d)
	}
	start := time.Now()
	deadline := start.Add(r.seconds)
	logs := make([]*callLog, len(d.clients))
	var wg sync.WaitGroup
	for ci, c := range d.clients {
		logs[ci] = newCallLog(start)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			log := logs[ci]
			z := rand.NewZipf(rand.New(rand.NewSource(r.seed*7919+int64(ci)+1)), invokeZipfS, 1, invokeObjects-1)
			for {
				idx := perm[z.Uint64()]
				t0 := time.Now()
				v, err := work(c, d.objects[idx])
				t1 := time.Now()
				log.add(t1, t1.Sub(t0), err == nil)
				if err == nil {
					d.checks[idx].note(v)
				}
				if t1.After(deadline) {
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	p50 := rep.callStats(phase{logs, elapsed})
	if r.trace {
		tr.create = createOnly
		tr.finish(rep, rep.attempted-rep.failed, p50, r.seed)
	}
	// The checks' bitsets grow with the number of calls; they are let go
	// before the heap is measured.
	checkCounters(rep, d.objects, d.checks)
	d.checks = nil
	rep.e2e["heap_mb"] = metric{heapMB(), "MB"}
	return rep, nil
}

// createRounds turns per-round create samples into the create figures
// and returns the Create parts alone, for the class layer.
func (r *report) createRounds(rounds []populated) []time.Duration {
	var samples [][]time.Duration
	var createOnly []time.Duration
	var creating time.Duration
	for _, p := range rounds {
		s := make([]time.Duration, len(p.creates))
		for i, c := range p.creates {
			s[i] = c.total
			createOnly = append(createOnly, c.create)
		}
		samples = append(samples, s)
		creating += p.creating
	}
	r.createStats(samples, creating)
	return createOnly
}
