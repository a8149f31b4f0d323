package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/security"
	"repro/internal/transport"
	"repro/internal/wire"
)

// --- host floors --------------------------------------------------------

type floorTimes struct {
	tcpRTTus float64 // raw loopback TCP one-byte ping-pong round trip
	chanNs   float64 // one unbuffered channel handoff between goroutines
	atomicNs float64 // one uncontended atomic add
}

// measureFloors times what no layer of the program can beat on this
// machine. Each figure is the median of five repeats.
func measureFloors() floorTimes {
	var f floorTimes
	var tcp, ch, at []float64
	for rep := 0; rep < 5; rep++ {
		tcp = append(tcp, tcpPingPong(400))
		ch = append(ch, chanHandoff(20000))
		at = append(at, atomicAdd(2_000_000))
	}
	f.tcpRTTus, f.chanNs, f.atomicNs = median(tcp), median(ch), median(at)
	return f
}

func tcpPingPong(n int) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	b := make([]byte, 1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(b); err != nil {
			break
		}
		if _, err := io.ReadFull(c, b); err != nil {
			break
		}
	}
	el := time.Since(t0)
	c.Close()
	<-done
	return us(el) / float64(n)
}

func chanHandoff(n int) float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	el := time.Since(t0)
	close(ping)
	<-pong
	return float64(el.Nanoseconds()) / float64(2*n)
}

var atomicSink atomic.Int64

func atomicAdd(n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		atomicSink.Add(1)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// --- bindagent: a timing resolver ----------------------------------------

// timedResolver wraps the Binding Agent client every core client uses,
// timing each resolution and refresh the runtime asks it for.
type timedResolver struct {
	inner *bindagent.Client

	mu       sync.Mutex
	resolves []time.Duration
	refresh  []time.Duration
	errors   int
}

func newTimedResolver(node *rt.Node, self loid.LOID, leaf core.AgentRef, timeout time.Duration) *timedResolver {
	raw := rt.NewCaller(node, self, nil)
	raw.Timeout = timeout
	return &timedResolver{inner: bindagent.NewClient(raw, leaf.LOID, leaf.Addr)}
}

func (t *timedResolver) note(into *[]time.Duration, t0 time.Time, err error) {
	d := time.Since(t0)
	t.mu.Lock()
	*into = append(*into, d)
	if err != nil {
		t.errors++
	}
	t.mu.Unlock()
}

func (t *timedResolver) Resolve(l loid.LOID) (binding.Binding, error) {
	return t.ResolveCtx(context.Background(), l)
}

func (t *timedResolver) ResolveCtx(ctx context.Context, l loid.LOID) (binding.Binding, error) {
	t0 := time.Now()
	b, err := t.inner.ResolveCtx(ctx, l)
	t.note(&t.resolves, t0, err)
	return b, err
}

func (t *timedResolver) Refresh(stale binding.Binding) (binding.Binding, error) {
	return t.RefreshCtx(context.Background(), stale)
}

func (t *timedResolver) RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	t0 := time.Now()
	b, err := t.inner.RefreshCtx(ctx, stale)
	t.note(&t.refresh, t0, err)
	return b, err
}

// reset drops the samples gathered so far (set-up traffic).
func (t *timedResolver) reset() {
	t.mu.Lock()
	t.resolves, t.refresh, t.errors = nil, nil, 0
	t.mu.Unlock()
}

// --- the traced phase ------------------------------------------------------

// tracer brackets a workload's measured phase in a traced run: it
// snapshots counters and allocation totals at the start, and at the end
// turns their deltas and the layer probes into per-layer metrics.
type tracer struct {
	d      *deployment
	snap   counterSnap
	mem0   runtime.MemStats
	create []time.Duration // class.Client.Create alone, measured phase
}

func startTrace(d *deployment) *tracer {
	t := &tracer{d: d, snap: snapCounters(d.reg)}
	for _, r := range d.resolvers {
		r.reset()
	}
	for _, c := range append([]*rt.Caller{d.creator}, d.clients...) {
		c.Cache().ResetStats()
	}
	runtime.ReadMemStats(&t.mem0)
	return t
}

// finish records the per-layer metrics of the traced run. calls is the
// number of Work calls the measured phase completed; callP50 its median
// latency. Counter deltas are read before any probe runs.
func (t *tracer) finish(rep *report, calls int64, callP50 time.Duration, seed int64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	L := rep.layers
	d, reg := t.d, t.d.reg
	perCall := func(v uint64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(v) / float64(calls)
	}
	L["rt.allocs_per_call"] = metric{perCall(m1.Mallocs - t.mem0.Mallocs), "count"}
	L["rt.bytes_per_call"] = metric{perCall(m1.TotalAlloc - t.mem0.TotalAlloc), "B"}

	// Counters the program exports, as deltas over the measured phase.
	count := func(name, prefix string) { L[name] = metric{t.snap.delta(reg, prefix), "count"} }
	count("transport.sent", "net/sent")
	count("transport.tcp_dropped", "net/tcp_dropped")
	count("bindagent.requests", "req/bindagent/")
	count("class.requests", "req/class/")
	count("magistrate.requests", "req/magistrate/")
	L["magistrate.adopt_failed"] = metric{t.snap.delta(reg, "mag/bulk_adopt_failed") + t.snap.delta(reg, "mag/reactivate_failed"), "count"}
	count("host.ckpt_saved", "ckpt/saved")
	count("host.ckpt_batches", "ckpt/batches")
	count("host.ckpt_bytes", "ckpt/bytes")
	count("host.ckpt_errors", "ckpt/errors")
	count("host.adopted_objects", "host/adopted_objects")
	// The prefix persist/group_commit also matches group_commit_recs.
	commits := t.snap.delta(reg, "persist/group_commit") - t.snap.delta(reg, "persist/group_commit_recs")
	recs := t.snap.delta(reg, "persist/group_commit_recs")
	L["persist.group_commits"] = metric{commits, "count"}
	L["persist.recs_per_commit"] = metric{ratio(recs, commits), "count"}
	L["persist.segments"] = metric{float64(reg.CounterValue("persist/segments")), "count"}
	count("health.opened", "health/opened")
	count("health.skipped", "health/skipped")
	count("health.probes", "health/probes")
	L["magistrate.bulk_adopt_p50_ms"] = metric{ms(reg.HistogramSnapshot("mag/bulk_adopt").P50), "ms"}

	var st binding.Stats
	for _, c := range append([]*rt.Caller{d.creator}, d.clients...) {
		s := c.Cache().Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Expired += s.Expired
		st.Evictions += s.Evictions
	}
	lookups := float64(st.Hits + st.Misses + st.Expired)
	L["binding.hit_ratio"] = metric{ratio(float64(st.Hits), lookups), "ratio"}
	L["binding.evictions"] = metric{float64(st.Evictions), "count"}

	var res, ref []time.Duration
	errs := 0
	for _, r := range d.resolvers {
		r.mu.Lock()
		res = append(res, r.resolves...)
		ref = append(ref, r.refresh...)
		errs += r.errors
		r.mu.Unlock()
	}
	sortDur(res)
	sortDur(ref)
	L["bindagent.resolve_n"] = metric{float64(len(res)), "count"}
	L["bindagent.resolve_p50_us"] = metric{us(pct(res, 0.5)), "us"}
	L["bindagent.resolve_p99_us"] = metric{us(pct(res, 0.99)), "us"}
	L["bindagent.refresh_n"] = metric{float64(len(ref)), "count"}
	L["bindagent.refresh_p50_us"] = metric{us(pct(ref, 0.5)), "us"}
	L["bindagent.errors"] = metric{float64(errs), "count"}

	cr := sortDur(t.create)
	L["class.create_p50_us"] = metric{us(pct(cr, 0.5)), "us"}
	L["class.create_p99_us"] = metric{us(pct(cr, 0.99)), "us"}

	// Probes of single layers, run after the measured phase.
	wireReq, wireParse, bufNs := wireProbe()
	L["wire.append_request_ns"] = metric{wireReq, "ns"}
	L["wire.parse_ns"] = metric{wireParse, "ns"}
	L["buf.get_release_ns"] = metric{bufNs, "ns"}
	rtt, err := transportEcho(d.sys.Trans, 2000)
	if err != nil {
		rep.problem("transport echo: %v", err)
	}
	L["transport.rtt_p50_us"] = metric{us(rtt), "us"}
	act, err := activationSample(d, seed, 32)
	if err != nil {
		rep.problem("activation sample: %v", err)
	}
	L["magistrate.activate_p50_us"] = metric{us(pct(act, 0.5)), "us"}
	L["magistrate.activate_p99_us"] = metric{us(pct(act, 0.99)), "us"}
	L["host.ckpt_round_ms"] = metric{ms(hostCheckpointRound(d)), "ms"}

	// The ledger: the layers timed on their own, against the call median.
	// A call is one request and one reply: two encodes, two parses, two
	// pooled buffers, one transport round trip, plus a resolution on
	// each binding-cache miss.
	wireShare := 2 * (wireReq + wireParse) / 1000
	bufShare := 2 * bufNs / 1000
	resolveShare := 0.0
	if lookups > 0 {
		resolveShare = float64(st.Misses+st.Expired) / lookups * us(pct(res, 0.5))
	}
	timed := us(rtt) + wireShare + bufShare + resolveShare
	p50 := us(callP50)
	L["rt.residue_us"] = metric{p50 - us(rtt) - wireShare, "us"}
	L["ledger.timed_us"] = metric{timed, "us"}
	L["ledger.unexplained_us"] = metric{p50 - timed, "us"}

	// Only a crash cycle produces these; the failover probe overwrites
	// them, every other traced run reports them as 0.
	for _, k := range []string{"failover.recovery_ms", "failover.ckpt_round_ms",
		"magistrate.hostfailed_ms", "gen.late_ms", "gen.late_p99_ms"} {
		L[k] = metric{0, "ms"}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireProbe times the wire encoder, the frame parser and the buffer
// pool on a request shaped like a Work call; each is ns per operation,
// the median of five repeats.
func wireProbe() (appendNs, parseNs, bufNs float64) {
	target := loid.New(301, 7, loid.DeriveKey("bench/target"))
	env := security.Env(loid.New(300, 1, loid.DeriveKey("bench/client/1")))
	replyTo := oa.Single(oa.MemElement(3))
	const n = 100_000
	var a, p, b []float64
	dst := make([]byte, 0, 512)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			dst = wire.AppendRequest(dst[:0], wire.KindRequest, uint64(i), target, "Work", &env, replyTo, nil)
		}
		a = append(a, float64(time.Since(t0).Nanoseconds())/n)

		f := wire.GetFrame()
		t0 = time.Now()
		for i := 0; i < n; i++ {
			if err := f.Parse(dst); err != nil {
				panic(err)
			}
		}
		p = append(p, float64(time.Since(t0).Nanoseconds())/n)
		f.Close()

		t0 = time.Now()
		for i := 0; i < n; i++ {
			buf.Get().Release()
		}
		b = append(b, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(a), median(p), median(b)
}

// transportEcho is the median round trip of a 64-byte SendBuf frame
// echoed between two benchmark-owned endpoints on tr.
func transportEcho(tr transport.Transport, n int) (time.Duration, error) {
	a, err := tr.NewEndpoint()
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := tr.NewEndpoint()
	if err != nil {
		return 0, err
	}
	defer b.Close()
	back := make(chan struct{}, 1)
	a.SetHandler(func([]byte) { back <- struct{}{} })
	b.SetHandler(func(data []byte) {
		r := buf.Get()
		r.B = append(r.B, data...)
		_ = b.SendBuf(a.Element(), r)
		r.Release()
	})
	lat := make([]time.Duration, 0, n)
	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		f := buf.Get()
		f.B = append(f.B, payload...)
		t0 := time.Now()
		err := a.SendBuf(b.Element(), f)
		f.Release()
		if err != nil {
			return 0, err
		}
		select {
		case <-back:
			lat = append(lat, time.Since(t0))
		case <-time.After(time.Second):
			return 0, fmt.Errorf("echo %d not back within 1s", i)
		}
	}
	return pct(sortDur(lat), 0.5), nil
}

// activationSample deactivates and reactivates n existing objects
// (chosen from seed) through the Magistrate's client, at the table size
// the workload left behind, and returns the sorted pair times.
func activationSample(d *deployment, seed int64, n int) ([]time.Duration, error) {
	if len(d.objects) == 0 {
		return nil, nil
	}
	mc := magistrate.NewClient(d.sys.BootClient(), d.sys.Jurisdictions[0].Magistrate)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []time.Duration
	for i := 0; i < n; i++ {
		l := d.objects[rng.Intn(len(d.objects))]
		t0 := time.Now()
		if err := mc.Deactivate(l); err != nil {
			return nil, fmt.Errorf("deactivate %v: %w", l, err)
		}
		if _, err := mc.Activate(l, loid.Nil); err != nil {
			return nil, fmt.Errorf("activate %v: %w", l, err)
		}
		out = append(out, time.Since(t0))
	}
	return sortDur(out), nil
}

// hostCheckpointRound is the median time of one forced CheckpointNow on
// each host that runs a checkpoint loop (0 when none does).
func hostCheckpointRound(d *deployment) time.Duration {
	var t []time.Duration
	for _, h := range d.sys.Jurisdictions[0].HostImpls() {
		t0 := time.Now()
		if _, err := h.CheckpointNow(); err != nil {
			continue
		}
		t = append(t, time.Since(t0))
	}
	return pct(sortDur(t), 0.5)
}
