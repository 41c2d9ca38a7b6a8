// Command perfbench is the repository benchmark: closed-loop workloads
// against MRP-Store and dLog deployments on the simulated network, driven
// through the public store and dlog clients.
//
//	python3 perfbench/run.py --workload kv-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload in two passes, untraced and then traced at the transport
// boundary, and prints per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero when an output check fails. README.md records why each
// workload is shaped as it is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mrp/internal/transport"
)

// clientsPerRun is the closed-loop client count: one goroutine per core of
// the 2-core host the bounds were set on, each waiting for its reply before
// issuing the next operation.
const clientsPerRun = 2

// Δ and λ of every ring: a coordinator that has started fewer than
// λ·Δ instances in a skip interval Δ fills the gap with skip instances.
const (
	skipInterval = 5 * time.Millisecond
	skipRate     = 9000
)

// benchClientBase numbers the benchmark's clients apart from the IDs the
// deployments hand out themselves (1_000_000+ and 2_000_000+).
const benchClientBase = 3_000_000

// clientAddr names benchmark client n's endpoint.
func clientAddr(n int) transport.Addr { return transport.Addr(fmt.Sprintf("bench-client-%d", n)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// run is what one workload reports.
type run struct {
	out       output
	badChecks []string
	notes     []string // human-readable lines printed before the result
}

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.badChecks = append(r.badChecks, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, value float64, unit string) {
	if r.out.Metrics == nil {
		r.out.Metrics = make(map[string]metric)
	}
	r.out.Metrics[name] = metric{Value: value, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "kv-read, kv-update or dlog-append")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var (
		r   run
		err error
	)
	switch *workload {
	case "kv-read":
		r, err = runKV(cfg, false)
	case "kv-update":
		r, err = runKV(cfg, true)
	case "dlog-append":
		r, err = runDLog(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, c := range r.badChecks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	r.out.Correct = len(r.badChecks) == 0
	for _, n := range r.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(r.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.out.Correct {
		os.Exit(1)
	}
}

// opSpan is one operation's start and end on the tracer's clock.
type opSpan struct{ start, end int64 }

// loop is one closed-loop client's tally for a window.
type loop struct {
	hist      *histogram
	attempted int
	failed    int
	spans     []opSpan // traced windows only
}

// window runs one goroutine per op function for the given time: each
// calls its op, waits for it to return, and calls it again. It returns
// every client's tally and the window's wall time, which ends when the
// last in-flight operation returns.
func window(ops []func() error, seconds float64, tr *tracer) ([]*loop, time.Duration) {
	loops := make([]*loop, len(ops))
	start := make(chan struct{})
	var wg sync.WaitGroup
	var deadline time.Time
	for i, op := range ops {
		l := &loop{hist: new(histogram)}
		loops[i] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for time.Now().Before(deadline) {
				var span opSpan
				if tr != nil {
					span.start = tr.now()
				}
				t0 := time.Now()
				err := op()
				d := time.Since(t0)
				l.attempted++
				if err != nil {
					l.failed++
					continue
				}
				l.hist.record(d)
				if tr != nil {
					span.end = tr.now()
					l.spans = append(l.spans, span)
				}
			}
		}()
	}
	begin := time.Now()
	deadline = begin.Add(time.Duration(seconds * float64(time.Second)))
	close(start)
	wg.Wait()
	return loops, time.Since(begin)
}

// tally adds loops to the result's attempted and failed counts, merges
// their latencies into h when h is non-nil, and returns the completed
// operations.
func tally(r *run, h *histogram, loops []*loop) int {
	done := 0
	for _, l := range loops {
		r.out.Attempted += l.attempted
		r.out.Failed += l.failed
		done += l.attempted - l.failed
		if h != nil {
			h.merge(l.hist)
		}
	}
	return done
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd sets the untraced metrics common to every workload.
func endToEnd(r *run, h *histogram, done int, elapsed time.Duration, setups, heaps []float64) {
	r.set("ops_per_s", float64(done)/elapsed.Seconds(), "1/s")
	r.set("lat_p50_us", h.quantile(0.50), "us")
	r.set("setup_s", median(setups), "s")
	r.set("heap_mb", median(heaps), "MB")
	errRate := 0.0
	if r.out.Attempted > 0 {
		errRate = float64(r.out.Failed) / float64(r.out.Attempted)
	}
	r.notes = append(r.notes, fmt.Sprintf(
		"ops/s %.1f  p50 %.2f us  p99 %.2f us  (%d ops)  error_rate %.6f  setup %.3f s  live heap %.2f MB",
		float64(done)/elapsed.Seconds(), h.quantile(0.5), h.quantile(0.99), done, errRate,
		median(setups), median(heaps)))
}

// splitmix64 fills b with a deterministic stream derived from the inputs;
// it generates preload values, update values and append payloads so that
// outputs can be checked without keeping every value in memory.
func splitmix64(b []byte, seed int64, a, c uint64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ a*0xBF58476D1CE4E5B9 ^ c*0x94D049BB133111EB
	for i := 0; i < len(b); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
}
