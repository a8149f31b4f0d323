// Package core bootstraps a complete Legion system: the five core
// Abstract class objects (§2.1.3), Host Objects, Magistrates and their
// Jurisdictions, and a tree of Binding Agents — wired exactly as
// §4.2.1 prescribes: the core objects are started "outside" Legion
// (here: by Boot), Host Objects and Magistrates then contact their
// classes to announce their existence, and everything after that is
// created through the ordinary Create/Derive machinery.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options configures Boot. The zero value yields a single-jurisdiction,
// single-host system with one Binding Agent over an in-process fabric.
type Options struct {
	// Transport carries all messages; nil creates a new mem Fabric.
	Transport transport.Transport
	// Registry receives metrics; nil creates a new one.
	Registry *metrics.Registry
	// Impls is the implementation registry; nil creates one. The
	// class-object implementation is always registered.
	Impls *implreg.Registry
	// Jurisdictions is the number of Magistrates (default 1).
	Jurisdictions int
	// HostsPerJurisdiction is the number of Host Objects per
	// Magistrate (default 1).
	HostsPerJurisdiction int
	// LeafAgents is the number of leaf Binding Agents clients are
	// spread over (default 1).
	LeafAgents int
	// AgentFanout shapes the Binding Agent combining tree (§5.2.2):
	// every AgentFanout agents share a parent, recursively, until a
	// single root talks to the class path. Zero or negative keeps the
	// agents flat — every leaf walks the class path itself.
	AgentFanout int
	// AgentCacheSize is each agent's binding-cache capacity
	// (0 = unbounded).
	AgentCacheSize int
	// ClientCacheSize is the default per-client binding cache size
	// (0 = rt.DefaultBindingCacheSize).
	ClientCacheSize int
	// BindingTTL bounds magistrate-issued bindings (0 = forever).
	BindingTTL time.Duration
	// CallTimeout is the per-wave reply deadline for all bootstrapped
	// callers (default 5s).
	CallTimeout time.Duration
	// VaultDir, if set, backs each jurisdiction's persistent storage
	// with an on-disk FileStore under VaultDir/j<N> instead of memory;
	// Object Persistent Addresses are then real file names (§3.1.1).
	VaultDir string
	// DataDir makes the whole system restartable: jurisdiction storage
	// goes on disk under DataDir/j<N> (overriding VaultDir), and Boot
	// restores the metaclass, core class, and magistrate tables from
	// DataDir/system.state when one exists (written by SaveSnapshot).
	// Objects come back inert from their newest persistent
	// representation and reactivate on first touch.
	DataDir string
	// SyncOPRs fsyncs every persistent-representation write (and its
	// directory) before it is acknowledged — survives power loss, costs
	// a disk flush per checkpoint. Only meaningful with on-disk storage.
	SyncOPRs bool
	// StoreBackend selects the jurisdiction storage engine by registry
	// name — "mem", "file", or "segment" (persist.Backends lists them).
	// Empty keeps the legacy defaulting: memory, or a FileStore when
	// VaultDir/DataDir is set. Disk backends root each jurisdiction
	// under <root>/j<N>.
	StoreBackend string
	// CheckpointEvery, when > 0, starts a checkpoint loop on every Host
	// Object: each interval, residents whose state changed since the
	// last round are snapshotted into the Jurisdiction's store via the
	// Magistrate, so a host crash loses at most one interval of work.
	// Zero disables checkpointing (idle objects then cost nothing).
	CheckpointEvery time.Duration
	// LoadReportEvery, when > 0, starts the load-vector heartbeat on
	// every Host Object: each interval, the host pushes its resident
	// count, mailbox backlog, dispatch rate, and checkpoint pressure to
	// its Magistrate, feeding load-aware placement and the rebalancer.
	// Zero disables reporting (placement then uses resident counts
	// alone).
	LoadReportEvery time.Duration
	// Tracer, if set, is installed on every node Boot creates, so each
	// hop of the binding/invocation chain records spans into it. Nil
	// disables tracing (the hot path pays one atomic load).
	Tracer *trace.Tracer
	// Health, if set, is shared by every bootstrapped caller:
	// cooperative failure detection plus breaker state for the debug
	// surface. Nil leaves callers without breakers (prior behaviour).
	Health *health.Tracker
	// Obs, if set, is the cluster observability plane: every node Boot
	// creates gets its per-method SLO observer, every Magistrate feeds
	// its placement/load/generation history into it, and breaker
	// transitions land in its flight recorder. Nil disables the plane
	// (the invocation path then pays one atomic load per serve).
	Obs *obs.Plane
	// Clock is the system-wide time base (nil = wall clock). A
	// clock.Virtual here puts every node's reply timers, deadlines and
	// retry backoffs, every Magistrate's TTLs and load staleness, and
	// every host loop onto deterministic simulated time — the
	// foundation of the deterministic-replay tests and the DES
	// harness. The caller drives it with Advance/Step.
	Clock clock.Clock
}

func (o *Options) fill() {
	if o.Jurisdictions <= 0 {
		o.Jurisdictions = 1
	}
	if o.HostsPerJurisdiction <= 0 {
		o.HostsPerJurisdiction = 1
	}
	if o.LeafAgents <= 0 {
		o.LeafAgents = 1
	}
	if o.AgentCacheSize < 0 {
		o.AgentCacheSize = 0
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
}

// AgentRef names a Binding Agent and where to reach it.
type AgentRef struct {
	LOID loid.LOID
	Addr oa.Address
}

// Jurisdiction groups a Magistrate with its hosts and storage (§2.2).
// Store is a MemStore by default, or a FileStore rooted under
// Options.VaultDir — the on-disk form of Fig 11's jurisdiction disks.
type Jurisdiction struct {
	Magistrate     loid.LOID
	MagistrateAddr oa.Address
	Hosts          []loid.LOID
	HostAddrs      []oa.Address
	Store          persist.Store

	mag       *magistrate.Magistrate
	hostImpls []*host.Host
}

// StoredOPRs counts the Object Persistent Representations currently in
// the jurisdiction's storage.
func (j *Jurisdiction) StoredOPRs() int {
	addrs, err := j.Store.List()
	if err != nil {
		return 0
	}
	return len(addrs)
}

// MagistrateImpl exposes the in-process Magistrate for local
// configuration (activation filters, TTLs) — the jurisdiction owner's
// prerogative.
func (j *Jurisdiction) MagistrateImpl() *magistrate.Magistrate { return j.mag }

// HostImpls exposes the in-process Host Objects (checkpoint control,
// chaos injection).
func (j *Jurisdiction) HostImpls() []*host.Host { return j.hostImpls }

// System is a booted Legion instance.
type System struct {
	Options Options
	// Fabric is set when Boot created the transport itself.
	Fabric *transport.Fabric
	Trans  transport.Transport
	Reg    *metrics.Registry
	Impls  *implreg.Registry

	// LegionClassAddr is where the metaclass answers.
	LegionClassAddr oa.Address
	// CoreClassAddrs maps each core Abstract class to its address.
	CoreClassAddrs map[loid.LOID]oa.Address

	Jurisdictions []*Jurisdiction
	// Leaves are the leaf Binding Agents, in client-assignment order.
	Leaves []AgentRef
	// Agents lists every agent (leaves first, then internal levels up
	// to the root).
	Agents []AgentRef

	// Names is a local naming context for string names (§4.1).
	Names *naming.Context

	meta     *class.Metaclass
	nodes    []*rt.Node
	boot     *rt.Caller
	nextLeaf int
	closed   bool

	mu           sync.Mutex
	schedClasses map[string]*class.Client
	nextHostSeq  uint64
	nextMagSeq   uint64
}

// Boot brings up a Legion system per opts.
func Boot(opts Options) (*System, error) {
	opts.fill()
	sys := &System{
		Options:        opts,
		Reg:            opts.Registry,
		Impls:          opts.Impls,
		Names:          naming.NewContext(),
		CoreClassAddrs: make(map[loid.LOID]oa.Address),
		schedClasses:   make(map[string]*class.Client),
	}
	if sys.Reg == nil {
		sys.Reg = metrics.NewRegistry()
	}
	if sys.Impls == nil {
		sys.Impls = implreg.NewRegistry()
	}
	if !sys.Impls.Has(class.ImplName) {
		// Class objects are internally synchronized, so hosts run them
		// with concurrent dispatch workers.
		sys.Impls.MustRegisterConcurrent(class.ImplName, class.NewEmptyClassImpl)
	}
	registerSchedImpls(sys.Impls)
	if !sys.Impls.Has(naming.ImplName) {
		// Context objects make the persistent shared name space (§1)
		// an ordinary Legion object.
		sys.Impls.MustRegisterConcurrent(naming.ImplName, naming.NewContextImpl)
	}
	sys.Trans = opts.Transport
	if sys.Trans == nil {
		f := transport.NewFabric(sys.Reg)
		sys.Fabric = f
		sys.Trans = f
	}
	if opts.Health != nil && opts.Obs != nil {
		// Breaker transitions are exactly the kind of rare, significant
		// moment the flight recorder exists for.
		plane := opts.Obs
		opts.Health.SetNotify(func(e oa.Element, st health.State) {
			plane.Record(obs.KindBreaker, e.String(), "breaker "+st.String(), 0)
		})
	}

	if err := sys.bootstrap(); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func (s *System) newNode(name string) (*rt.Node, error) {
	n, err := rt.NewNode(s.Trans, s.Reg, name)
	if err != nil {
		return nil, err
	}
	if s.Options.Tracer != nil {
		n.SetTracer(s.Options.Tracer)
	}
	if ob := s.Options.Obs.Observer(); ob != nil {
		n.SetObserver(ob)
	}
	if s.Options.Clock != nil {
		n.SetClock(s.Options.Clock)
	}
	s.nodes = append(s.nodes, n)
	return n, nil
}

// tune applies the system-wide caller knobs (per-wave timeout, shared
// health tracker) to a freshly built caller.
func (s *System) tune(c *rt.Caller) {
	c.Timeout = s.Options.CallTimeout
	if s.Options.Health != nil {
		c.SetHealth(s.Options.Health)
	}
}

func (s *System) bootstrap() error {
	// 0. A previous life's snapshot, if DataDir holds one. Restores are
	// threaded through the ordinary bootstrap below: each component is
	// built as usual, then handed its saved tables before anything can
	// call it.
	snap, err := s.loadSnapshot()
	if err != nil {
		return err
	}

	// 1. LegionClass, started exactly once, out-of-band (§4.2.1).
	metaNode, err := s.newNode("legionclass")
	if err != nil {
		return err
	}
	s.meta, err = class.NewMetaclass()
	if err != nil {
		return err
	}
	if snap != nil && len(snap.Metaclass) > 0 {
		if err := s.meta.RestoreState(snap.Metaclass); err != nil {
			return fmt.Errorf("core: restore LegionClass: %w", err)
		}
		// Saved direct bindings point at dead addresses; drop them so
		// class location goes through the responsibility pairs (which
		// can reactivate) while bootstrap re-registers the core classes
		// at their new homes moments from now.
		s.meta.ForgetBindings()
	}
	metaCaller := rt.NewCaller(metaNode, loid.LegionClass, nil)
	s.tune(metaCaller)
	if _, err := metaNode.Spawn(loid.LegionClass, s.meta,
		rt.WithCaller(metaCaller), rt.WithLabel("class/LegionClass"),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		return err
	}
	s.LegionClassAddr = metaNode.Address()
	s.CoreClassAddrs[loid.LegionClass.ID()] = s.LegionClassAddr
	// Callers created before the agents exist get their resolvers
	// wired after bootAgents.
	needResolver := []*rt.Caller{metaCaller}

	// Bootstrap caller: a client identity used only during Boot.
	bootNode, err := s.newNode("boot")
	if err != nil {
		return err
	}
	s.boot = rt.NewCaller(bootNode, loid.NewNoKey(299, 1), nil)
	s.boot.Timeout = s.Options.CallTimeout
	needResolver = append(needResolver, s.boot)
	mc := class.NewMetaClient(s.boot)
	s.boot.AddBinding(bindingFor(loid.LegionClass, s.LegionClassAddr))
	if err := mc.RegisterClassBinding(loid.LegionClass, s.LegionClassAddr); err != nil {
		return err
	}

	// 2. The remaining core Abstract classes (§2.1.3), one node each.
	coreClasses := []struct {
		l    loid.LOID
		name string
	}{
		{loid.LegionObject, "LegionObject"},
		{loid.LegionHost, "LegionHost"},
		{loid.LegionMagistrate, "LegionMagistrate"},
		{loid.LegionBindingAgent, "LegionBindingAgent"},
	}
	for _, cc := range coreClasses {
		node, err := s.newNode("class-" + cc.name)
		if err != nil {
			return err
		}
		meta := &class.Meta{
			Self:  loid.New(cc.l.ClassID, 0, loid.DeriveKey("class/"+cc.name)),
			Name:  cc.name,
			Super: loid.LegionObject,
			Flags: class.FlagAbstract,
		}
		if cc.l.SameObject(loid.LegionObject) {
			meta.Super = loid.Nil // the sink of the kind-of graph
		}
		impl, err := class.NewClassImpl(meta)
		if err != nil {
			return err
		}
		if snap != nil && len(snap.Classes[cc.l.String()]) > 0 {
			if err := impl.RestoreState(snap.Classes[cc.l.String()]); err != nil {
				return fmt.Errorf("core: restore class %s: %w", cc.name, err)
			}
		}
		caller := rt.NewCaller(node, meta.Self, nil)
		s.tune(caller)
		caller.AddBinding(bindingFor(loid.LegionClass, s.LegionClassAddr))
		needResolver = append(needResolver, caller)
		if _, err := node.Spawn(cc.l, impl,
			rt.WithCaller(caller), rt.WithLabel("class/"+cc.name),
			rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
			return err
		}
		s.CoreClassAddrs[cc.l.ID()] = node.Address()
		if err := mc.RegisterClassBinding(cc.l, node.Address()); err != nil {
			return err
		}
	}

	// 3. Binding Agent tree (§5.2.2). Leaves first, then parents per
	// fanout until one root remains.
	if err := s.bootAgents(); err != nil {
		return err
	}
	// Now that agents exist, give every earlier caller its Binding
	// Agent — the runtime analogue of "the persistent state of each
	// Legion object contains the Object Address of its Binding Agent"
	// (§3.6).
	for i, c := range needResolver {
		leaf := s.leafFor(i)
		c.SetResolver(bindagent.NewClient(c, leaf.LOID, leaf.Addr))
	}

	// 4. Hosts and Magistrates per jurisdiction. They are started
	// out-of-band and then "contact the existing class object ... to
	// tell it of their existence" (§4.2.1).
	hostClass := class.NewClient(s.boot, loid.LegionHost)
	magClass := class.NewClient(s.boot, loid.LegionMagistrate)
	s.boot.AddBinding(bindingFor(loid.LegionHost, s.CoreClassAddrs[loid.LegionHost.ID()]))
	s.boot.AddBinding(bindingFor(loid.LegionMagistrate, s.CoreClassAddrs[loid.LegionMagistrate.ID()]))
	s.boot.AddBinding(bindingFor(loid.LegionObject, s.CoreClassAddrs[loid.LegionObject.ID()]))

	hostSeq, magSeq := uint64(0), uint64(0)
	var allMags []loid.LOID
	for j := 0; j < s.Options.Jurisdictions; j++ {
		store, err := s.openStore(j)
		if err != nil {
			return err
		}
		juris := &Jurisdiction{Store: store}

		for h := 0; h < s.Options.HostsPerJurisdiction; h++ {
			hostSeq++
			hl := loid.New(loid.ClassIDLegionHost, hostSeq, loid.DeriveKey(fmt.Sprintf("host/%d", hostSeq)))
			node, err := s.newNode(fmt.Sprintf("host%d", hostSeq))
			if err != nil {
				return err
			}
			leaf := s.leafFor(int(hostSeq))
			resFactory := func(self loid.LOID) rt.Resolver {
				c := rt.NewCaller(node, self, nil)
				s.tune(c)
				return bindagent.NewClient(c, leaf.LOID, leaf.Addr)
			}
			hobj := host.New(hl, node, s.Impls, resFactory)
			hostCaller := rt.NewCaller(node, hl, nil)
			s.tune(hostCaller)
			hostCaller.SetResolver(bindagent.NewClient(hostCaller, leaf.LOID, leaf.Addr))
			if _, err := node.Spawn(hl, hobj,
				rt.WithCaller(hostCaller), rt.WithLabel(fmt.Sprintf("host/%d", hostSeq)),
				rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
				return err
			}
			if err := hostClass.RegisterInstance(hl, node.Address()); err != nil {
				return err
			}
			juris.Hosts = append(juris.Hosts, hl)
			juris.HostAddrs = append(juris.HostAddrs, node.Address())
			juris.hostImpls = append(juris.hostImpls, hobj)
		}

		magSeq++
		ml := loid.New(loid.ClassIDMagistrate, magSeq, loid.DeriveKey(fmt.Sprintf("magistrate/%d", magSeq)))
		node, err := s.newNode(fmt.Sprintf("mag%d", magSeq))
		if err != nil {
			return err
		}
		mag := magistrate.New(ml, juris.Store)
		mag.BindingTTL = s.Options.BindingTTL
		mag.SetClock(s.Options.Clock)
		if s.Options.Obs != nil {
			mag.SetPlane(s.Options.Obs)
		}
		if snap != nil && j < len(snap.Magistrates) && len(snap.Magistrates[j]) > 0 {
			if err := mag.RestoreState(snap.Magistrates[j]); err != nil {
				return fmt.Errorf("core: restore magistrate %d: %w", j, err)
			}
			// The saved host list names the previous process's
			// endpoints; this life's hosts AddHost themselves below.
			mag.ForgetHosts()
		}
		leaf := s.leafFor(j)
		magCaller := rt.NewCaller(node, ml, nil)
		s.tune(magCaller)
		magCaller.SetResolver(bindagent.NewClient(magCaller, leaf.LOID, leaf.Addr))
		if _, err := node.Spawn(ml, mag,
			rt.WithCaller(magCaller), rt.WithLabel(fmt.Sprintf("magistrate/%d", magSeq)),
			rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
			return err
		}
		if err := magClass.RegisterInstance(ml, node.Address()); err != nil {
			return err
		}
		juris.Magistrate = ml
		juris.MagistrateAddr = node.Address()
		juris.mag = mag

		mcl := magistrate.NewClient(s.boot, ml)
		s.boot.AddBinding(bindingFor(ml, node.Address()))
		for i, hl := range juris.Hosts {
			if err := mcl.AddHost(hl, juris.HostAddrs[i]); err != nil {
				return err
			}
		}
		if s.Options.CheckpointEvery > 0 {
			for _, hobj := range juris.hostImpls {
				hobj.StartCheckpointer(ml, node.Address(), s.Options.CheckpointEvery)
			}
		}
		if s.Options.LoadReportEvery > 0 {
			for _, hobj := range juris.hostImpls {
				hobj.StartLoadReporter(ml, node.Address(), s.Options.LoadReportEvery)
			}
		}
		s.Jurisdictions = append(s.Jurisdictions, juris)
		allMags = append(allMags, ml)
	}

	s.nextHostSeq = hostSeq
	s.nextMagSeq = magSeq

	// 5. Give LegionObject (the class everyone derives from) the full
	// magistrate set as candidates, so Derive works out of the box.
	lo := class.NewClient(s.boot, loid.LegionObject)
	if err := lo.SetDefaultMagistrates(allMags); err != nil {
		return err
	}
	return nil
}

// openStore opens the store of jurisdiction j (0-based, in boot
// order): the StoreBackend engine — file by default when a data
// directory is set, else mem — rooted at <DataDir or VaultDir>/j<j>,
// with the SyncOPRs and metrics settings. Boot and AddJurisdiction
// both open their stores here.
func (s *System) openStore(j int) (persist.Store, error) {
	dir := s.storeRoot()
	backend := s.Options.StoreBackend
	if backend == "" {
		backend = "mem"
		if dir != "" {
			backend = "file"
		}
	}
	if backend != "mem" && dir == "" {
		return nil, fmt.Errorf("core: store backend %q needs DataDir or VaultDir", backend)
	}
	store, err := persist.Open(backend, persist.BackendConfig{
		Dir:     fmt.Sprintf("%s/j%d", dir, j),
		Sync:    s.Options.SyncOPRs,
		Metrics: s.Reg,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open %s store: %w", backend, err)
	}
	if sp, ok := store.(persist.StatsProvider); ok {
		if q := sp.Stats().Quarantined; q > 0 {
			s.Reg.Counter("persist/quarantined").Add(uint64(q))
		}
	}
	return store, nil
}

// bootAgents builds the agent tree bottom-up.
func (s *System) bootAgents() error {
	newAgent := func(name string, seq uint64) (AgentRef, *bindagent.Agent, error) {
		node, err := s.newNode(name)
		if err != nil {
			return AgentRef{}, nil, err
		}
		al := loid.New(loid.ClassIDBindingAgent, seq, loid.DeriveKey("agent/"+name))
		agent := bindagent.New(al, s.Options.AgentCacheSize, s.LegionClassAddr)
		caller := rt.NewCaller(node, al, nil)
		s.tune(caller)
		if _, err := node.Spawn(al, agent,
			rt.WithCaller(caller), rt.WithLabel("bindagent/"+name),
			rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
			return AgentRef{}, nil, err
		}
		ref := AgentRef{LOID: al, Addr: node.Address()}
		// Agents announce themselves to their class (§4.2.1).
		agentClass := class.NewClient(s.boot, loid.LegionBindingAgent)
		s.boot.AddBinding(bindingFor(loid.LegionBindingAgent, s.CoreClassAddrs[loid.LegionBindingAgent.ID()]))
		if err := agentClass.RegisterInstance(al, node.Address()); err != nil {
			return AgentRef{}, nil, err
		}
		return ref, agent, nil
	}

	seq := uint64(0)
	type level struct {
		refs   []AgentRef
		agents []*bindagent.Agent
	}
	leaves := level{}
	for i := 0; i < s.Options.LeafAgents; i++ {
		seq++
		ref, ag, err := newAgent(fmt.Sprintf("leaf%d", i), seq)
		if err != nil {
			return err
		}
		leaves.refs = append(leaves.refs, ref)
		leaves.agents = append(leaves.agents, ag)
	}
	s.Leaves = leaves.refs
	s.Agents = append(s.Agents, leaves.refs...)

	if s.Options.AgentFanout <= 1 {
		return nil // flat: every leaf walks the class path itself
	}
	cur := leaves
	depth := 0
	for len(cur.refs) > 1 {
		depth++
		next := level{}
		for i := 0; i < len(cur.refs); i += s.Options.AgentFanout {
			seq++
			ref, ag, err := newAgent(fmt.Sprintf("l%d-%d", depth, i/s.Options.AgentFanout), seq)
			if err != nil {
				return err
			}
			end := i + s.Options.AgentFanout
			if end > len(cur.refs) {
				end = len(cur.refs)
			}
			for k := i; k < end; k++ {
				cur.agents[k].SetParent(ref.LOID, ref.Addr)
			}
			next.refs = append(next.refs, ref)
			next.agents = append(next.agents, ag)
		}
		s.Agents = append(s.Agents, next.refs...)
		cur = next
	}
	return nil
}

// leafFor deterministically assigns a leaf agent by index.
func (s *System) leafFor(i int) AgentRef {
	return s.Leaves[i%len(s.Leaves)]
}

// NextLeaf rotates over leaf agents for client assignment.
func (s *System) NextLeaf() AgentRef {
	ref := s.Leaves[s.nextLeaf%len(s.Leaves)]
	s.nextLeaf++
	return ref
}

// NewClient creates a fresh client identity on its own node, wired to
// the next leaf Binding Agent. The returned caller is what application
// code uses as its communication layer.
func (s *System) NewClient(self loid.LOID) (*rt.Caller, error) {
	node, err := s.newNode("client")
	if err != nil {
		return nil, err
	}
	leaf := s.NextLeaf()
	c := rt.NewCaller(node, self, bindagent.NewClient(newRawCaller(node, self, s.Options.CallTimeout), leaf.LOID, leaf.Addr))
	s.tune(c)
	if s.Options.ClientCacheSize > 0 {
		c.SetCache(newCache(s.Options.ClientCacheSize))
	}
	return c, nil
}

// BootClient returns the system's bootstrap caller (pre-seeded with
// core bindings); tests and tools use it for administrative calls.
func (s *System) BootClient() *rt.Caller { return s.boot }

// Metaclass exposes the in-process LegionClass for white-box
// inspection by tests and experiments.
func (s *System) Metaclass() *class.Metaclass { return s.meta }

// DeriveClass derives a new class from LegionObject: the common path
// for applications. impl must be registered in s.Impls on every host.
func (s *System) DeriveClass(name, impl string, ifc *idl.Interface, flags class.Flags) (*class.Client, loid.LOID, error) {
	lo := class.NewClient(s.boot, loid.LegionObject)
	cl, b, err := lo.Derive(name, impl, ifc, flags, loid.Nil)
	if err != nil {
		return nil, loid.Nil, err
	}
	s.boot.AddBinding(b)
	if err := s.Names.Bind("/classes/"+name, cl, true); err != nil {
		return nil, loid.Nil, err
	}
	return class.NewClient(s.boot, cl), cl, nil
}

// FindObject locates a live object on any of the system's nodes —
// white-box access for tests and experiments that need to configure a
// running object directly (e.g. install a MayI policy), standing in
// for the object configuring itself.
func (s *System) FindObject(l loid.LOID) (*rt.Object, bool) {
	for _, n := range s.nodes {
		if o, ok := n.Lookup(l); ok {
			return o, true
		}
	}
	return nil, false
}

// CountIncarnations reports how many of the system's nodes currently
// run a live copy of l — the exactly-once invariant checker for
// migration and failover tests (a correct system never shows 2).
func (s *System) CountIncarnations(l loid.LOID) int {
	n := 0
	for _, nd := range s.nodes {
		if _, ok := nd.Lookup(l); ok {
			n++
		}
	}
	return n
}

// Close tears the system down.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, j := range s.Jurisdictions {
		for _, h := range j.hostImpls {
			h.StopCheckpointer()
			h.StopLoadReporter()
		}
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for _, j := range s.Jurisdictions {
		if c, ok := j.Store.(io.Closer); ok {
			_ = c.Close() // stops segment compaction and group commit
		}
	}
	if s.Fabric != nil {
		s.Fabric.Close()
	}
}

// newRawCaller builds a resolver-less caller for a component's own
// agent client (the agent is reached by address, so no resolver is
// needed).
func newRawCaller(node *rt.Node, self loid.LOID, timeout time.Duration) *rt.Caller {
	c := rt.NewCaller(node, self, nil)
	c.Timeout = timeout
	return c
}
