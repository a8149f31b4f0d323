// Package sched implements Scheduling Agents. Scheduling is
// "intentionally left out of the core object model, except for a few
// hooks" (§3.7): classes record a Scheduling Agent per object, and
// Magistrates accept host suggestions through the second parameter of
// Activate(LOID, LOID) (§3.8). A Scheduling Agent is an ordinary
// Legion object whose PickHost member function turns a candidate host
// list into a placement suggestion; the policies here are the
// mechanisms the paper expects policy authors to build.
package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Interface is the member-function set of a Scheduling Agent.
var Interface = idl.NewInterface("LegionSchedulingAgent",
	idl.MethodSig{Name: "PickHost",
		Params:  []idl.Param{{Name: "candidates", Type: idl.TBytes}},
		Returns: []idl.Param{{Name: "host", Type: idl.TLOID}}},
	idl.MethodSig{Name: "PolicyName",
		Returns: []idl.Param{{Name: "name", Type: idl.TString}}},
)

// Policy chooses one host from a non-empty candidate list. ask lets
// load-aware policies query candidate Host Objects for their load
// vectors (it may be nil for load-oblivious policies).
type Policy interface {
	Pick(candidates []loid.LOID, ask func(loid.LOID) (host.Load, error)) (loid.LOID, error)
	Name() string
}

// RoundRobin rotates over the candidates. Lock-free: the cursor is a
// single atomic counter, so concurrent PickHost invocations neither
// serialize nor allocate.
type RoundRobin struct {
	i atomic.Uint64
}

func (p *RoundRobin) Pick(cs []loid.LOID, _ func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	return cs[(p.i.Add(1)-1)%uint64(len(cs))], nil
}

func (p *RoundRobin) Name() string { return "round-robin" }

// Random picks uniformly at random from a lock-free splitmix64
// stream (the same generator the Caller uses for address selection):
// one atomic add per pick, no locks, no allocation.
type Random struct {
	state atomic.Uint64
}

// NewRandom builds a seeded random policy.
func NewRandom(seed int64) *Random {
	p := &Random{}
	p.state.Store(uint64(seed) ^ 0x5DEECE66D)
	return p
}

func (p *Random) Pick(cs []loid.LOID, _ func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	s := p.state.Add(0x9E3779B97F4A7C15)
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	hi, _ := bits.Mul64(s, uint64(len(cs)))
	return cs[hi], nil
}

func (p *Random) Name() string { return "random" }

// LeastLoaded queries every candidate's load vector and applies
// host.PickLeastLoaded to their Scores — the policy the Magistrate's
// own placement uses. Unreachable hosts are skipped. The scan starts at
// the first candidate, and the previous pick is held while it trails
// the best by less than host.PlacementMargin, so placement doesn't
// flap between hosts whose scores differ only by transient queue
// noise.
type LeastLoaded struct {
	mu       sync.Mutex
	lastPick loid.LOID
}

// NewLeastLoaded builds the policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

func (p *LeastLoaded) Pick(cs []loid.LOID, ask func(loid.LOID) (host.Load, error)) (loid.LOID, error) {
	if ask == nil {
		return cs[0], nil
	}
	p.mu.Lock()
	last := p.lastPick
	p.mu.Unlock()
	var buf [16]float64 // typical candidate lists score on the stack
	scores := buf[:0]
	lastIdx := -1
	for i, c := range cs {
		s := math.Inf(1) // unreachable: never the best
		if ld, err := ask(c); err == nil {
			s = ld.Score()
		}
		scores = append(scores, s)
		if c.SameObject(last) {
			lastIdx = i
		}
	}
	i := host.PickLeastLoaded(scores, 0, lastIdx)
	if math.IsInf(scores[i], 1) {
		return loid.Nil, fmt.Errorf("sched: no candidate host reachable")
	}
	p.mu.Lock()
	p.lastPick = cs[i]
	p.mu.Unlock()
	return cs[i], nil
}

func (p *LeastLoaded) Name() string { return "least-loaded" }

// Agent is the Scheduling Agent object implementation.
type Agent struct {
	policy Policy
	obj    *rt.Object
}

// NewAgent builds a Scheduling Agent with the given policy.
func NewAgent(policy Policy) *Agent {
	return &Agent{policy: policy}
}

// Interface implements rt.Impl.
func (a *Agent) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (a *Agent) Bind(o *rt.Object) { a.obj = o }

// Dispatch implements rt.Impl.
func (a *Agent) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	switch inv.Method {
	case "PickHost":
		raw, err := inv.Arg(0)
		if err != nil {
			return nil, err
		}
		cs, err := wire.AsLOIDList(raw)
		if err != nil {
			return nil, err
		}
		if len(cs) == 0 {
			return nil, fmt.Errorf("sched: empty candidate list")
		}
		ask := func(h loid.LOID) (host.Load, error) {
			return host.NewClient(a.obj.Caller(), h).GetLoad()
		}
		h, err := a.policy.Pick(cs, ask)
		if err != nil {
			return nil, err
		}
		return [][]byte{wire.LOID(h)}, nil
	case "PolicyName":
		return [][]byte{wire.String(a.policy.Name())}, nil
	}
	return nil, &rt.NoSuchMethodError{Method: inv.Method}
}

// SaveState implements rt.Impl (policies are configuration, not
// state).
func (a *Agent) SaveState() ([]byte, error) { return nil, nil }

// RestoreState implements rt.Impl.
func (a *Agent) RestoreState([]byte) error { return nil }

// Client is a typed handle on a remote Scheduling Agent.
type Client struct {
	c     *rt.Caller
	agent loid.LOID
}

// NewClient wraps caller for invocations on the agent.
func NewClient(c *rt.Caller, agent loid.LOID) *Client {
	return &Client{c: c, agent: agent}
}

// PickHost asks the agent to choose among candidates.
func (cl *Client) PickHost(candidates []loid.LOID) (loid.LOID, error) {
	res, err := cl.c.Call(cl.agent, "PickHost", wire.LOIDList(candidates))
	if err != nil {
		return loid.Nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return loid.Nil, err
	}
	return wire.AsLOID(raw)
}

// PolicyName reports the agent's policy.
func (cl *Client) PolicyName() (string, error) {
	res, err := cl.c.Call(cl.agent, "PolicyName")
	if err != nil {
		return "", err
	}
	raw, err := res.Result(0)
	if err != nil {
		return "", err
	}
	return wire.AsString(raw), nil
}
