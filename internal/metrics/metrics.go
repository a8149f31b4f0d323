// Package metrics provides the per-component request counters and
// latency histograms that the scalability experiments (§5) rely on.
// Every core object (class, magistrate, host, binding agent) counts the
// requests it serves; the "distributed systems principle" — that the
// number of requests to any particular component must not be an
// increasing function of the number of hosts — is then directly
// measurable.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter safe for
// concurrent use. All methods are nil-receiver safe: a nil *Counter is
// a discard, which is how the Nop registry makes metrics free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Set stores an absolute value, turning the counter into a gauge.
// Used for level metrics (e.g. persist/segments) that go down as well
// as up.
func (c *Counter) Set(n uint64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// numBuckets is the histogram bucket count: bucket i counts d with
// 2^(i-1)µs <= d < 2^i µs; bucket 0: < 1µs.
const numBuckets = 32

// Histogram records durations in power-of-two microsecond buckets.
// Observe is lock-free: count/sum/buckets are atomic adds and min/max
// are CAS loops, so parallel observers on distinct cache lines never
// serialize. Snapshot reads the atomics without a lock; it is a
// consistent-enough view for reporting, not a linearizable cut.
// A nil *Histogram discards observations (see Nop).
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Int64 // nanoseconds
	// min/max hold the observed duration in nanoseconds, offset by +1
	// so that 0 means "no observation yet" (durations are clamped to
	// >= 0 before recording).
	minEnc  atomic.Int64
	maxEnc  atomic.Int64
	buckets [numBuckets]atomic.Uint64
	// exemplars: per bucket, the duration (ns, +1 encoded like maxEnc)
	// and TraceID of the slowest call recorded with ObserveExemplar.
	// Written with independent atomics — a reader racing two writers can
	// pair one writer's duration with the other's trace, both of which
	// still name real calls in the same bucket, so the race is benign.
	exDur   [numBuckets]atomic.Int64
	exTrace [numBuckets]atomic.Uint64
}

// bucketOf maps a duration to its power-of-two microsecond bucket.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 0 && b < numBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// BucketBound returns the exclusive upper bound of bucket i; the last
// bucket is unbounded and returns a negative duration as "+Inf".
func BucketBound(i int) time.Duration {
	if i >= numBuckets-1 {
		return -1
	}
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	enc := int64(d) + 1
	for {
		cur := h.minEnc.Load()
		if cur != 0 && cur <= enc {
			break
		}
		if h.minEnc.CompareAndSwap(cur, enc) {
			break
		}
	}
	for {
		cur := h.maxEnc.Load()
		if cur >= enc {
			break
		}
		if h.maxEnc.CompareAndSwap(cur, enc) {
			break
		}
	}
	h.buckets[bucketOf(d)].Add(1)
}

// ObserveExemplar records one duration and, when traceID is nonzero,
// competes it for the bucket's exemplar slot: the slot keeps the
// TraceID of the slowest recent call in that bucket, so a scraper can
// jump from "p99.9 regressed" straight to a causal trace. Alloc-free
// and lock-free like Observe; losing a slot race just keeps another
// real call from the same bucket.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(d)
	if traceID == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	b := bucketOf(d)
	enc := int64(d) + 1
	for {
		cur := h.exDur[b].Load()
		if cur >= enc {
			return
		}
		if h.exDur[b].CompareAndSwap(cur, enc) {
			h.exTrace[b].Store(traceID)
			return
		}
	}
}

// Exemplar names the slowest recent call of one histogram bucket.
type Exemplar struct {
	Bucket  int
	Dur     time.Duration
	TraceID uint64
}

// HistStats is a snapshot of a histogram.
type HistStats struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
	// Buckets is the raw power-of-two µs bucket occupancy (see
	// BucketBound); exposed so scrapers can re-export the full shape.
	Buckets [numBuckets]uint64
	// Exemplars lists, sparsely, the buckets that hold an exemplar
	// (recorded via ObserveExemplar), slowest-bucket last.
	Exemplars []Exemplar
}

// Exemplar returns the exemplar from the highest occupied bucket — the
// TraceID of the slowest call the histogram has seen — or false if no
// exemplar was ever attached.
func (s *HistStats) Exemplar() (Exemplar, bool) {
	if len(s.Exemplars) == 0 {
		return Exemplar{}, false
	}
	return s.Exemplars[len(s.Exemplars)-1], true
}

// Snapshot computes summary statistics. Percentiles are bucket-upper-
// bound approximations. Under concurrent Observe the snapshot is
// approximate (fields are read without a common lock), but the
// percentiles are internally CONSISTENT: they are derived from the
// one bucket cut this snapshot read, so P50 <= P99 <= P999 always
// holds within a snapshot. (Deriving them from the separately-read
// Count used to let two racing Observes produce percentile sets that
// moved non-monotonically between reads.)
func (h *Histogram) Snapshot() HistStats {
	if h == nil {
		return HistStats{}
	}
	var s HistStats
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	if minEnc := h.minEnc.Load(); minEnc > 0 {
		s.Min = time.Duration(minEnc - 1)
	}
	if maxEnc := h.maxEnc.Load(); maxEnc > 0 {
		s.Max = time.Duration(maxEnc - 1)
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	for i := range h.exDur {
		// A slot's first writer stores its duration before its trace:
		// skip a slot caught in between.
		if enc, tr := h.exDur[i].Load(), h.exTrace[i].Load(); enc > 0 && tr != 0 {
			s.Exemplars = append(s.Exemplars, Exemplar{
				Bucket:  i,
				Dur:     time.Duration(enc - 1),
				TraceID: tr,
			})
		}
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / time.Duration(s.Count)
	s.P50 = s.percentile(0.50)
	s.P99 = s.percentile(0.99)
	s.P999 = s.percentile(0.999)
	return s
}

// Recompute rederives Mean and the percentiles from Count, Sum, and
// Buckets — for stats assembled from a wire snapshot or a Merge rather
// than a live histogram. A zero Max is approximated by the bound of
// the highest occupied bucket so percentile fallback stays sane.
func (s *HistStats) Recompute() {
	if s.Count == 0 {
		return
	}
	s.Mean = s.Sum / time.Duration(s.Count)
	if s.Max == 0 {
		for i := len(s.Buckets) - 1; i >= 0; i-- {
			if s.Buckets[i] > 0 {
				if b := BucketBound(i); b > 0 {
					s.Max = b
				} else {
					s.Max = BucketBound(i-1) * 2
				}
				break
			}
		}
	}
	s.P50 = s.percentile(0.50)
	s.P99 = s.percentile(0.99)
	s.P999 = s.percentile(0.999)
}

// Merge folds o into s (summing counts, buckets, and exemplar sets)
// and recomputes the derived statistics — how the observability plane
// combines one histogram's snapshots from several hosts.
func (s *HistStats) Merge(o HistStats) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min > 0 && (s.Min == 0 || o.Min < s.Min) {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	// Keep, per bucket, the slower exemplar.
	for _, ex := range o.Exemplars {
		replaced := false
		for i, cur := range s.Exemplars {
			if cur.Bucket == ex.Bucket {
				if ex.Dur > cur.Dur {
					s.Exemplars[i] = ex
				}
				replaced = true
				break
			}
		}
		if !replaced {
			s.Exemplars = append(s.Exemplars, ex)
		}
	}
	sort.Slice(s.Exemplars, func(i, j int) bool { return s.Exemplars[i].Bucket < s.Exemplars[j].Bucket })
	s.Recompute()
}

func (s *HistStats) percentile(q float64) time.Duration {
	// The percentile base is the bucket cut itself, NOT s.Count: under
	// concurrent Observe the atomic count and the bucket array are read
	// at slightly different instants, and a Count ahead of the buckets
	// would push the target past the cumulative total — q=0.5 could
	// then fall off the end (returning Max) while q=0.99 landed in a
	// bucket below it. Walking one array against its own total keeps
	// every quantile of a snapshot on the same monotone cumulative
	// curve.
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return s.Max
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return s.Max
}

// Reset zeroes the histogram. Not atomic with concurrent Observe.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.minEnc.Store(0)
	h.maxEnc.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	for i := range h.exDur {
		h.exDur[i].Store(0)
		h.exTrace[i].Store(0)
	}
}

// Registry is a named collection of counters and histograms. Component
// names follow "component/instance" convention, e.g. "class/L256.0" or
// "bindagent/leaf3". Lookups are lock-free sync.Map reads so per-
// message counter access never serializes hot paths (callers should
// still intern counters they touch on every message). The zero value
// is usable, but call NewRegistry for symmetry.
type Registry struct {
	counts sync.Map // string -> *Counter
	hists  sync.Map // string -> *Histogram
	// noop marks a discard registry: Counter/Histogram return nil
	// (whose methods are no-ops), and nothing is ever allocated or
	// retained. Only Nop sets this.
	noop bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter returns (creating if needed) the counter with the given name.
// On the Nop registry it returns nil, which discards all operations.
func (r *Registry) Counter(name string) *Counter {
	if r.noop {
		return nil
	}
	if v, ok := r.counts.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counts.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Histogram returns (creating if needed) the histogram with the given
// name. On the Nop registry it returns nil, which discards all
// observations.
func (r *Registry) Histogram(name string) *Histogram {
	if r.noop {
		return nil
	}
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, &Histogram{})
	return v.(*Histogram)
}

// CounterValue reads the named counter without creating it (0 when
// absent) — for query paths that must not pollute the registry.
func (r *Registry) CounterValue(name string) uint64 {
	if v, ok := r.counts.Load(name); ok {
		return v.(*Counter).Value()
	}
	return 0
}

// HistogramSnapshot reads the named histogram without creating it
// (zero stats when absent).
func (r *Registry) HistogramSnapshot(name string) HistStats {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram).Snapshot()
	}
	return HistStats{}
}

// Counters returns a stable-ordered snapshot of all counter values.
func (r *Registry) Counters() []NamedValue {
	var out []NamedValue
	r.counts.Range(func(k, v any) bool {
		out = append(out, NamedValue{Name: k.(string), Value: v.(*Counter).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedHist pairs a histogram name with its snapshot.
type NamedHist struct {
	Name  string
	Stats HistStats
}

// Histograms returns a stable-ordered snapshot of all histograms.
func (r *Registry) Histograms() []NamedHist {
	var out []NamedHist
	r.hists.Range(func(k, v any) bool {
		out = append(out, NamedHist{Name: k.(string), Stats: v.(*Histogram).Snapshot()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NamedValue pairs a metric name with its value.
type NamedValue struct {
	Name  string
	Value uint64
}

func (nv NamedValue) String() string { return fmt.Sprintf("%s=%d", nv.Name, nv.Value) }

// MaxCounter returns the counter with the largest value whose name has
// the given prefix; ok is false if none match. Ties keep the
// lexicographically first name (Counters is sorted and only strictly
// greater values displace the best). Experiment E9 uses it to find the
// most-loaded component of a kind.
func (r *Registry) MaxCounter(prefix string) (NamedValue, bool) {
	var best NamedValue
	found := false
	for _, nv := range r.Counters() {
		if len(nv.Name) >= len(prefix) && nv.Name[:len(prefix)] == prefix {
			if !found || nv.Value > best.Value {
				best, found = nv, true
			}
		}
	}
	return best, found
}

// SumCounters returns the sum of all counters whose name has the given
// prefix.
func (r *Registry) SumCounters(prefix string) uint64 {
	var sum uint64
	for _, nv := range r.Counters() {
		if len(nv.Name) >= len(prefix) && nv.Name[:len(prefix)] == prefix {
			sum += nv.Value
		}
	}
	return sum
}

// Reset zeroes every metric but keeps registrations.
func (r *Registry) Reset() {
	r.counts.Range(func(_, v any) bool {
		v.(*Counter).Reset()
		return true
	})
	r.hists.Range(func(_, v any) bool {
		v.(*Histogram).Reset()
		return true
	})
}

// Nop is a shared discard registry for components that don't care
// about metrics: it hands out nil counters/histograms whose methods
// are no-ops, so hot paths wired to it neither allocate nor retain.
var Nop = &Registry{noop: true}
