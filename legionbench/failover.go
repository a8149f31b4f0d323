package main

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/sim"
)

const (
	failoverRate     = 2000 // calls per second, issued in 1 ms ticks
	failoverTick     = time.Millisecond
	failoverDeadline = 2 * time.Second        // per call, from its intended tick
	failoverWave     = 250 * time.Millisecond // per-wave reply deadline
	failoverCkpt     = 200 * time.Millisecond // host checkpoint loop period
	failoverSettle   = 300 * time.Millisecond // load-only pause between cycles
	recoveryCap      = 10 * time.Second
	// lateBound is the generator's validity bound: a run whose ticks
	// fired later than this at the 99th percentile measured the
	// generator, not the system, and is reported as invalid.
	lateBound = 100 * time.Millisecond
)

// failover runs the failover probe's workload: three hosts and the
// given number of objects on the segment store with host checkpoint
// loops and a shared health tracker, under open-loop traffic, through
// repeated cycles of a forced checkpoint round, a detected host crash,
// recovery, and a restart.
func failover(r run, objects int) (*report, error) {
	rep := newReport()
	cfg := deployConfig{hosts: 3, clients: 3, store: "segment", ckptEvery: failoverCkpt,
		callTimeout: failoverWave, workdir: r.workdir, traced: true}
	d, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if _, err := d.populate(objects); err != nil {
		return nil, err
	}
	if _, err := d.sys.CheckpointNow(); err != nil {
		return nil, err
	}

	// The sim chaos helpers drive crashes and health on this deployment.
	s := &sim.Sim{Sys: d.sys, Reg: d.reg, Clients: append([]*rt.Caller{d.creator}, d.clients...)}
	s.EnableHealth(health.Config{FailureThreshold: 3, OpenDuration: 300 * time.Millisecond})
	traffic, checker := d.clients[:2], d.clients[2]

	tr := startTrace(d)
	rng := rand.New(rand.NewSource(r.seed))
	start := time.Now()
	deadline := start.Add(r.seconds)

	// Open-loop generator: each 1 ms tick issues its share of the rate;
	// latency runs from the tick's intended time.
	log := newCallLog(start)
	var (
		late     []time.Duration
		inflight sync.WaitGroup
	)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		perTick := failoverRate * int(failoverTick) / int(time.Second)
		targets := rand.New(rand.NewSource(r.seed + 1))
		for i := 1; ; i++ {
			intended := start.Add(time.Duration(i) * failoverTick)
			if !intended.Before(deadline) {
				return
			}
			if w := time.Until(intended); w > 0 {
				time.Sleep(w)
			}
			late = append(late, time.Since(intended))
			for k := 0; k < perTick; k++ {
				c := traffic[(i*perTick+k)%len(traffic)]
				l := d.objects[targets.Intn(len(d.objects))]
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					ctx, cancel := context.WithDeadline(context.Background(), intended.Add(failoverDeadline))
					res, err := c.CallCtx(ctx, l, "Work")
					cancel()
					end := time.Now()
					log.add(end, end.Sub(intended), err == nil && res.Err() == nil)
				}()
			}
		}
	}()

	// Crash cycles, until the measured phase ends.
	mag := d.sys.Jurisdictions[0].MagistrateImpl()
	hosts := d.sys.Jurisdictions[0].Hosts
	var recovery, ckptRounds, hostFailed []time.Duration
	// Host 0 carries the class object, whose instance table is volatile
	// state, so only hosts 1 and 2 are crashed.
	victim := 1 + rng.Intn(2)
	for time.Now().Before(deadline) {
		time.Sleep(failoverSettle)
		t0 := time.Now()
		if _, err := d.sys.CheckpointNow(); err != nil {
			rep.problem("forced checkpoint round: %v", err)
		}
		ckptRounds = append(ckptRounds, time.Since(t0))
		if !time.Now().Before(deadline) {
			break
		}

		settledBefore := d.reg.CounterValue("mag/bulk_adoptions") + d.reg.CounterValue("mag/reactivations")
		t0 = time.Now()
		lost, err := s.CrashHost(0, victim)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		mag.HostFailed(hosts[victim])
		hostFailed = append(hostFailed, time.Since(t1))
		if !answerAll(checker, lost, t0.Add(recoveryCap)) {
			rep.problem("crash of host %d: %d lost objects not all answering after %v", victim, len(lost), recoveryCap)
		}
		for len(lost) > 0 && d.reg.CounterValue("mag/bulk_adoptions")+d.reg.CounterValue("mag/reactivations") == settledBefore {
			if time.Since(t0) > recoveryCap {
				rep.problem("crash of host %d: magistrate did not settle within %v", victim, recoveryCap)
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		recovery = append(recovery, time.Since(t0))
		if err := s.RestartHost(0, victim); err != nil {
			return nil, err
		}
		victim = 3 - victim
	}
	<-genDone
	inflight.Wait()
	elapsed := time.Since(start)

	p50 := rep.callStats(phase{[]*callLog{log}, elapsed})
	tr.finish(rep, rep.attempted-rep.failed, p50, r.seed)
	// Set after finish, which writes 0 for the figures only a crash
	// cycle produces.
	sortDur(late)
	rep.layers["gen.late_ms"] = metric{ms(pct(late, 0.5)), "ms"}
	rep.layers["gen.late_p99_ms"] = metric{ms(pct(late, 0.99)), "ms"}
	if p := pct(late, 0.99); p > lateBound {
		rep.problem("generator invalid: 99th percentile tick lateness %v exceeds %v", p, lateBound)
	}
	rep.layers["failover.recovery_ms"] = metric{ms(pct(sortDur(recovery), 0.5)), "ms"}
	rep.layers["failover.ckpt_round_ms"] = metric{ms(pct(sortDur(ckptRounds), 0.5)), "ms"}
	rep.layers["magistrate.hostfailed_ms"] = metric{ms(pct(sortDur(hostFailed), 0.5)), "ms"}
	if len(recovery) == 0 {
		rep.problem("no crash cycle completed in the measured phase")
	}

	// Afterwards every object answers and has exactly one incarnation.
	if !answerAll(checker, d.objects, time.Now().Add(recoveryCap)) {
		rep.problem("not every object answers after the run")
	}
	multi := 0
	for _, l := range d.objects {
		if n := s.Incarnations(l); n != 1 {
			if multi < 5 {
				rep.problem("object %v has %d incarnations", l, n)
			}
			multi++
		}
	}
	if multi > 5 {
		rep.problem("%d objects in all do not have exactly one incarnation", multi)
	}
	return rep, nil
}

// answerAll calls Work on every object in objs from c, with four
// concurrent workers, retrying each until it answers or until stop.
// It reports whether all answered.
func answerAll(c *rt.Caller, objs []loid.LOID, stop time.Time) bool {
	var wg sync.WaitGroup
	var mu sync.Mutex
	all := true
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(objs); i += workers {
				for {
					ctx, cancel := context.WithDeadline(context.Background(), stop)
					res, err := c.CallCtx(ctx, objs[i], "Work")
					cancel()
					if err == nil && res.Err() == nil {
						break
					}
					if !time.Now().Before(stop) {
						mu.Lock()
						all = false
						mu.Unlock()
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	return all
}

// The failover probe: a traced grow run also measures the host
// checkpoint, persist, health and failover layers, which the invoke and
// grow deployments leave idle, on a small failover deployment.
const (
	probeObjects = 600
	probeSeconds = 4 * time.Second
)

var probeLayers = []string{"host.", "persist.", "health.", "failover.", "gen.",
	"magistrate.hostfailed_ms", "magistrate.bulk_adopt_p50_ms", "magistrate.adopt_failed"}

// probeFailover runs the probe and copies its layer metrics, and any
// failed check, into rep.
func probeFailover(r run, rep *report) {
	pr := r
	pr.seconds = probeSeconds
	fr, err := failover(pr, probeObjects)
	if err != nil {
		rep.problem("failover probe: %v", err)
		return
	}
	for _, p := range fr.problems {
		rep.problem("failover probe: %s", p)
	}
	for k, v := range fr.layers {
		for _, p := range probeLayers {
			if strings.HasPrefix(k, p) {
				rep.layers[k] = v
			}
		}
	}
}
