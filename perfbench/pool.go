package main

import "time"

// deployment is one freshly set-up system under test with its clients.
type deployment struct {
	ids   []int          // each client's number, unique within the run
	ops   []func() error // each client's closed-loop operation
	views []nodeView
	begin func() // called as the measured window opens; may be nil
	// finish checks the outputs. It reports the reads the window
	// attempted and how many of them a lease holder served.
	finish func(r *run, loops []*loop) (reads, leaseHits int)
	stop   func() // closes the clients and tears the deployment down
}

// minSetups is the fewest set-ups whose median one pass reports.
const minSetups = 9

// setupFunc sets up deployment number dep, traced when tr is non-nil, and
// returns its set-up time.
type setupFunc func(dep int, tr *tracer) (*deployment, time.Duration, error)

// pass is one run over a pool of fresh deployments.
type pass struct {
	hist    *histogram
	done    int
	elapsed time.Duration
	setups  []float64
	heaps   []float64
	traces  []clientTrace
}

func (p pass) opsPerS() float64 { return float64(p.done) / p.elapsed.Seconds() }

// runPass sets up each of pool deployments in turn, measures it for an
// equal share of the run's seconds, checks its outputs and tears it down.
// Pooling averages what is drawn once per deployment, such as the phase
// of each ring's skip ticker. With a tracer, each window is observed into
// lt; without one, the live heap is taken before and after each window.
func runPass(r *run, cfg runConfig, pool int, warmup float64, setup setupFunc, tr *tracer, lt *layerTotals) (pass, error) {
	p := pass{hist: new(histogram)}
	// Set-up time is a median over at least minSetups set-ups; a pool
	// smaller than that sets up and tears down extra deployments first.
	for i := pool; i < minSetups; i++ {
		d, setupTime, err := setup(i, nil)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, setupTime.Seconds())
		d.stop()
	}
	for dep := 0; dep < pool; dep++ {
		d, setupTime, err := setup(dep, tr)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, setupTime.Seconds())
		warm, _ := window(d.ops, warmup, nil)
		tally(r, nil, warm)
		var loops []*loop
		var elapsed time.Duration
		measure := func() {
			if d.begin != nil {
				d.begin()
			}
			loops, elapsed = window(d.ops, cfg.seconds/float64(pool), tr)
		}
		if tr != nil {
			lt.observe(tr, d.views, measure)
		} else {
			// The live heap is taken on both sides of the window: its value
			// depends on where the checkpoint and trim cycles stand.
			p.heaps = append(p.heaps, liveHeapMB())
			measure()
			p.heaps = append(p.heaps, liveHeapMB())
		}
		done := tally(r, p.hist, loops)
		p.done += done
		p.elapsed += elapsed
		reads, hits := d.finish(r, loops)
		if tr != nil {
			lt.ops += float64(done)
			lt.reads += float64(reads)
			lt.leaseHits += float64(hits)
			for i, id := range d.ids {
				p.traces = append(p.traces, clientTrace{
					addr:  clientAddr(id),
					id:    benchClientBase + uint64(id),
					spans: loops[i].spans,
				})
			}
		}
		d.stop()
	}
	return p, nil
}

// runWorkload runs one workload: untraced, it reports the end-to-end
// metrics; traced, it runs an untraced pass for reference and then a
// traced pass, and reports the per-layer metrics and the latency tail.
func runWorkload(cfg runConfig, pool int, warmup float64, setup setupFunc) (run, error) {
	var r run
	if !cfg.trace {
		p, err := runPass(&r, cfg, pool, warmup, setup, nil, nil)
		if err != nil {
			return r, err
		}
		endToEnd(&r, p.hist, p.done, p.elapsed, p.setups, p.heaps)
		return r, nil
	}
	// Each pass measures half the run's seconds.
	half := cfg
	half.seconds /= 2
	ref, err := runPass(&r, half, pool, warmup, setup, nil, nil)
	if err != nil {
		return r, err
	}
	tr := newTracer()
	var lt layerTotals
	p, err := runPass(&r, half, pool, warmup, setup, tr, &lt)
	if err != nil {
		return r, err
	}
	// The tail is reported here, from the untraced pass, because it does
	// not repeat closely enough between runs to bound a change.
	r.set("lat_p99_us", ref.hist.quantile(0.99), "us")
	layerMetrics(&r, &lt, tr, p.traces, ref.opsPerS(), p.opsPerS())
	return r, nil
}
