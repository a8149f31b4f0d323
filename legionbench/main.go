// Command legionbench is the repository benchmark. It boots real Legion
// deployments (core.Boot, the way legiond builds one), drives one named
// workload against them, checks the outputs, and prints one JSON result
// as the last line of standard output.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the same workload runs with timing wrappers around the calls into each
// layer, followed by probes of the single layers, and the result carries
// the per-layer metrics. The first line of output is a machine header
// (core counts, Go version, raw host floors) so results from different
// machines can be compared. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract (the last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings to a workload.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
}

// report is what a workload hands back: both metric families (only one
// is printed), the call accounting, and any failed output check.
type report struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(run) (*report, error){
	"invoke-mem": func(r run) (*report, error) { return runInvoke(r, false) },
	"invoke-tcp": func(r run) (*report, error) { return runInvoke(r, true) },
	"grow":       runGrow,
}

func main() {
	workload := flag.String("workload", "", "workload name: invoke-mem | invoke-tcp | grow")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	workdir := flag.String("workdir", ".bench_build", "directory for store files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "legionbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "legionbench:", err)
		os.Exit(1)
	}

	floors := measureFloors()
	header := map[string]any{
		"machine": map[string]any{
			"nproc":                 runtime.NumCPU(),
			"gomaxprocs":            runtime.GOMAXPROCS(0),
			"go":                    runtime.Version(),
			"os_arch":               runtime.GOOS + "/" + runtime.GOARCH,
			"floor_tcp_rtt_us":      floors.tcpRTTus,
			"floor_chan_handoff_ns": floors.chanNs,
			"floor_atomic_add_ns":   floors.atomicNs,
		},
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
	}
	hb, _ := json.Marshal(header)
	fmt.Println(string(hb))

	rep, err := fn(run{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "legionbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "legionbench: check failed:", p)
	}
	// Every attempted operation (calls and creates alike) counts in the
	// ratio, so it always equals 1 - failed/attempted.
	okRatio := ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	rep.e2e["ok_ratio"] = metric{okRatio, "ratio"}
	rep.layers["calls.failed_ratio"] = metric{1 - okRatio, "ratio"}
	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if *traceFlag == 0 {
		// The unbounded figures an untraced run also measures (creates,
		// call p99, failover), on a line of their own.
		ub, _ := json.Marshal(map[string]any{"unbounded": rep.layers})
		fmt.Println(string(ub))
	} else {
		// The traced run's own call median: against the untraced run's,
		// the tracing overhead.
		rep.layers["trace.call_p50_us"] = rep.e2e["call_p50_us"]
		rep.layers["floor.tcp_rtt_us"] = metric{floors.tcpRTTus, "us"}
		rep.layers["floor.chan_handoff_ns"] = metric{floors.chanNs, "ns"}
		rep.layers["floor.atomic_add_ns"] = metric{floors.atomicNs, "ns"}
		out.Metrics = rep.layers
	}
	if out.Attempted < 1 {
		out.Attempted, out.Correct = 1, false
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "legionbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// --- statistics -------------------------------------------------------

// pct returns the q-quantile (nearest rank) of sorted samples, 0 if none.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func sortDur(d []time.Duration) []time.Duration {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// createStats fills the create figures from create-plus-first-call
// samples in creation order (one slice per populate round or growth)
// and the total time spent creating. They spread too widely from run to
// run on a small shared host to bound, so they are reported with the
// per-layer metrics (see README.md).
func (r *report) createStats(rounds [][]time.Duration, creating time.Duration) {
	var all []time.Duration
	var first, last []time.Duration
	for _, s := range rounds {
		if len(s) == 0 {
			continue
		}
		all = append(all, s...)
		tenth := len(s) / 10
		if tenth == 0 {
			tenth = 1
		}
		first = append(first, s[:tenth]...)
		last = append(last, s[len(s)-tenth:]...)
	}
	r.layers["create.per_s"] = metric{ratio(float64(len(all)), creating.Seconds()), "1/s"}
	sortDur(all)
	r.layers["create.p50_ms"] = metric{ms(pct(all, 0.50)), "ms"}
	r.layers["create.p99_ms"] = metric{ms(pct(all, 0.99)), "ms"}
	growth := ratio(float64(pct(sortDur(last), 0.5)), float64(pct(sortDur(first), 0.5)))
	r.layers["create.growth_x"] = metric{growth, "x"}
}
