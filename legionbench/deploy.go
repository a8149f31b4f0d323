package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// deployConfig sizes one deployment: a single jurisdiction of hosts
// running the simulator's worker class.
type deployConfig struct {
	tcp         bool
	hosts       int
	clients     int
	store       string        // jurisdiction storage backend ("" = memory)
	ckptEvery   time.Duration // host checkpoint loop period (0 = off)
	callTimeout time.Duration // per-wave reply deadline (0 = core default)
	workdir     string
	traced      bool // install timing resolvers on every client
}

// deployment is a booted system plus the benchmark's own clients.
type deployment struct {
	sys     *core.System
	reg     *metrics.Registry
	cls     *class.Client // class client on the creator
	creator *rt.Caller
	clients []*rt.Caller
	objects []loid.LOID
	checks  []counterCheck // per object: its Work results so far

	resolvers []*timedResolver // traced runs only
	nodes     []*rt.Node       // benchmark-owned nodes, closed with the deployment
	storeDir  string
}

func boot(cfg deployConfig) (*deployment, error) {
	reg := metrics.NewRegistry()
	impls := implreg.NewRegistry()
	impls.MustRegister(sim.WorkerImplName, sim.NewWorkerImpl)
	opts := core.Options{
		Registry:             reg,
		Impls:                impls,
		HostsPerJurisdiction: cfg.hosts,
		CallTimeout:          cfg.callTimeout,
		CheckpointEvery:      cfg.ckptEvery,
		StoreBackend:         cfg.store,
	}
	if cfg.tcp {
		// As legiond runs: every node listens on loopback TCP.
		opts.Transport = &transport.TCP{Registry: reg}
	}
	d := &deployment{reg: reg}
	if cfg.store != "" && cfg.store != "mem" {
		dir, err := os.MkdirTemp(cfg.workdir, "store-")
		if err != nil {
			return nil, err
		}
		d.storeDir, opts.VaultDir = dir, dir
	}
	sys, err := core.Boot(opts)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	d.sys = sys
	_, clsID, err := sys.DeriveClass("Worker", sim.WorkerImplName, sim.WorkerInterface(), 0)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("derive: %w", err)
	}
	mags := make([]loid.LOID, 0, len(sys.Jurisdictions))
	for _, j := range sys.Jurisdictions {
		mags = append(mags, j.Magistrate)
	}
	if err := class.NewClient(sys.BootClient(), clsID).SetDefaultMagistrates(mags); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i <= cfg.clients; i++ {
		c, err := d.newClient(i, cfg.traced)
		if err != nil {
			d.close()
			return nil, err
		}
		if i == 0 {
			d.creator = c
		} else {
			d.clients = append(d.clients, c)
		}
	}
	d.cls = class.NewClient(d.creator, clsID)
	return d, nil
}

// newClient makes client i (0 is the creator). Traced runs replace its
// resolver with a timing wrapper around an equivalent Binding Agent
// client on a benchmark-owned node.
func (d *deployment) newClient(i int, traced bool) (*rt.Caller, error) {
	self := loid.New(300, uint64(i+1), loid.DeriveKey(fmt.Sprintf("bench/client/%d", i)))
	c, err := d.sys.NewClient(self)
	if err != nil {
		return nil, err
	}
	if traced {
		node, err := rt.NewNode(d.sys.Trans, d.reg, "bench-resolver")
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, node)
		tr := newTimedResolver(node, self, d.sys.Leaves[i%len(d.sys.Leaves)], c.Timeout)
		c.SetResolver(tr)
		d.resolvers = append(d.resolvers, tr)
	}
	return c, nil
}

func (d *deployment) close() {
	if d.sys != nil {
		d.sys.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
	if d.storeDir != "" {
		os.RemoveAll(d.storeDir)
	}
}

// work calls Work on l and returns the object's call counter.
func work(c *rt.Caller, l loid.LOID) (uint64, error) {
	res, err := c.Call(l, "Work")
	if err != nil {
		return 0, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return 0, err
	}
	return wire.AsUint64(raw)
}

// createSample is one timed Create plus first Work call.
type createSample struct {
	obj     loid.LOID
	total   time.Duration // Create + first call
	create  time.Duration // the class.Client.Create part
	counter uint64        // the first call's result
}

// createOne runs class.Client.Create and then the new object's first
// Work call through the creator.
func (d *deployment) createOne() (createSample, error) {
	t0 := time.Now()
	l, _, err := d.cls.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		return createSample{}, fmt.Errorf("create: %w", err)
	}
	t1 := time.Now()
	n, err := work(d.creator, l)
	if err != nil {
		return createSample{}, fmt.Errorf("first call on %v: %w", l, err)
	}
	return createSample{obj: l, total: time.Since(t0), create: t1.Sub(t0), counter: n}, nil
}

// setupMedian boots and populates rounds deployments with build,
// closing all but the last, with a collection before each so garbage
// from the previous round is not charged to the next. It returns the
// last deployment, the median set-up time in seconds, and whatever build
// collected per round.
func setupMedian[T any](rounds int, build func() (*deployment, T, error)) (*deployment, float64, []T, error) {
	var (
		times []float64
		out   []T
		d     *deployment
	)
	for i := 0; i < rounds; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		nd, v, err := build()
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		d = nd
		out = append(out, v)
	}
	// The measured phase starts from a collected heap.
	runtime.GC()
	return d, median(times), out, nil
}

// counterSnap is a point-in-time copy of every counter in a registry.
type counterSnap map[string]uint64

func snapCounters(reg *metrics.Registry) counterSnap {
	s := counterSnap{}
	for _, nv := range reg.Counters() {
		s[nv.Name] = nv.Value
	}
	return s
}

// delta sums, over counters whose name starts with prefix, the increase
// since s.
func (s counterSnap) delta(reg *metrics.Registry, prefix string) float64 {
	var n float64
	for _, nv := range reg.Counters() {
		if strings.HasPrefix(nv.Name, prefix) {
			n += float64(nv.Value) - float64(s[nv.Name])
		}
	}
	return n
}

// counterCheck verifies one object's Work results: over a run they
// must be exactly 1..n, each once. A gap is a lost invocation, a repeat
// a doubly executed one. It records into a bitset, so the hot loop does
// not allocate per call.
type counterCheck struct {
	mu     sync.Mutex
	bits   []uint64
	n, max uint64
	bad    bool // a repeat, or a 0
}

func (c *counterCheck) note(v uint64) {
	c.mu.Lock()
	w := int(v / 64)
	for len(c.bits) <= w {
		c.bits = append(c.bits, 0)
	}
	if v == 0 || c.bits[w]&(1<<(v%64)) != 0 {
		c.bad = true
	}
	c.bits[w] |= 1 << (v % 64)
	c.n++
	if v > c.max {
		c.max = v
	}
	c.mu.Unlock()
}

// exact reports whether the results noted so far are exactly 1..n.
func (c *counterCheck) exact() bool { return !c.bad && c.max == c.n }

// checkCounters reports every object whose Work results are not 1..n.
func checkCounters(r *report, objs []loid.LOID, checks []counterCheck) {
	bad := 0
	for i := range checks {
		if c := &checks[i]; !c.exact() {
			if bad < 5 {
				r.problem("object %v: %d Work results, highest %d, repeats or gaps: not 1..n", objs[i], c.n, c.max)
			}
			bad++
		}
	}
	if bad > 5 {
		r.problem("%d objects in all have Work results that are not 1..n", bad)
	}
}
