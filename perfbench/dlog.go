package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"mrp/internal/dlog"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// dlog-append uses Figure 5's dLog shape: 2 logs plus the common ring, 3
// servers, synchronous SSD acceptor logs (250 µs per sync), 32 KiB ring
// batches flushed every 2 ms, and 1 KiB appends with each client appending
// to its own log. Every log ring merges with the idle common ring. The
// phases of the rings' batch and skip tickers are drawn once per
// deployment, so a run pools several fresh deployments and reports over
// all of them.
const (
	dlogPool        = 20   // fresh deployments per run
	dlogWarmup      = 0.25 // unmeasured seconds per deployment before its window
	dlogPayload     = 1024
	dlogReadSamples = 8 // positions read back per log and deployment
)

type dlogEnv struct {
	net *netsim.Network
	d   *dlog.Deployment
}

func (e *dlogEnv) stop() {
	e.d.Stop()
	e.net.Close()
}

func (e *dlogEnv) views() []nodeView {
	var vs []nodeView
	for _, s := range e.d.Servers {
		v := nodeView{node: s.Node, learner: s.Learner}
		for _, d := range s.Disks {
			v.disks = append(v.disks, d)
		}
		vs = append(vs, v)
	}
	return vs
}

// posRec is one acknowledged append: its position and payload counter.
type posRec struct{ pos, n uint64 }

type dlogClient struct {
	id    int // unique within the run: deployment*10 + client
	log   dlog.LogID
	cl    *dlog.Client
	seed  int64
	buf   []byte
	n     uint64
	acked []posRec
	// failed counts appends that failed since the last acknowledged one;
	// each may or may not have taken a position.
	failed   int
	gaps     int // acknowledged positions that do not follow the previous one
	readBack int
	readBad  int
}

func (c *dlogClient) payload(n uint64) []byte {
	splitmix64(c.buf, c.seed, uint64(c.id)+1, n)
	return c.buf
}

func (c *dlogClient) append() error {
	c.n++
	pos, err := c.cl.Append(c.log, c.payload(c.n))
	if err != nil {
		c.failed++
		return err
	}
	if k := len(c.acked); k > 0 {
		prev := c.acked[k-1].pos
		if pos <= prev || pos > prev+1+uint64(c.failed) {
			c.gaps++
		}
	}
	c.failed = 0
	c.acked = append(c.acked, posRec{pos, c.n})
	return nil
}

// verify reads back sampled positions, always including the first and the
// last, and compares them with the appended payloads.
func (c *dlogClient) verify(r *run) {
	r.check(c.gaps == 0, "dlog client %d: %d positions not consecutive on log %d", c.id, c.gaps, c.log)
	if len(c.acked) == 0 {
		r.check(false, "dlog client %d: no acknowledged append", c.id)
		return
	}
	rng := rand.New(rand.NewSource(c.seed + int64(c.id)))
	picks := []int{0, len(c.acked) - 1}
	for i := 0; i < dlogReadSamples-2; i++ {
		picks = append(picks, rng.Intn(len(c.acked)))
	}
	for _, i := range picks {
		rec := c.acked[i]
		got, err := c.cl.Read(c.log, rec.pos)
		c.readBack++
		if err != nil || !bytes.Equal(got, c.payload(rec.n)) {
			c.readBad++
		}
	}
	r.check(c.readBad == 0, "dlog client %d: %d of %d sampled reads differ from the appended payload", c.id, c.readBad, c.readBack)
}

// setupDLog deploys deployment number dep and makes one acknowledged
// append per client; the returned duration is the set-up time.
func setupDLog(seed int64, dep int, tr *tracer) (*dlogEnv, []*dlogClient, time.Duration, error) {
	t0 := time.Now()
	net := newNet()
	plain := func(a transport.Addr) (transport.Endpoint, error) { return net.Endpoint(a), nil }
	cfg := dlog.DeployConfig{
		EndpointFor:   plain,
		Logs:          2,
		Servers:       3,
		StorageMode:   storage.SyncSSD,
		DiskModel:     storage.SSD,
		BatchMaxBytes: 32 << 10,
		BatchDelay:    2 * time.Millisecond,
		SkipInterval:  skipInterval,
		SkipRate:      skipRate,
		RetryTimeout:  500 * time.Millisecond,
	}
	if tr != nil {
		cfg.EndpointFor = tr.wrap(plain)
	}
	d, err := dlog.Deploy(cfg)
	if err != nil {
		net.Close()
		return nil, nil, 0, fmt.Errorf("deploy dlog: %w", err)
	}
	env := &dlogEnv{net: net, d: d}
	var clients []*dlogClient
	for i := 0; i < clientsPerRun; i++ {
		id := dep*10 + i
		var ep transport.Endpoint = net.Endpoint(clientAddr(id))
		if tr != nil {
			ep = tr.decorate(ep, true)
		}
		c := &dlogClient{
			id:   id,
			log:  dlog.LogID(i),
			cl:   d.NewClientAt(ep, benchClientBase+uint64(id)),
			seed: seed,
			buf:  make([]byte, dlogPayload),
		}
		clients = append(clients, c)
		if err := c.append(); err != nil {
			closeAll(clients)
			env.stop()
			return nil, nil, 0, fmt.Errorf("first append to log %d: %w", i, err)
		}
	}
	return env, clients, time.Since(t0), nil
}

func runDLog(cfg runConfig) (run, error) {
	return runWorkload(cfg, dlogPool, dlogWarmup, func(dep int, tr *tracer) (*deployment, time.Duration, error) {
		env, clients, setup, err := setupDLog(cfg.seed, dep, tr)
		if err != nil {
			return nil, 0, err
		}
		d := &deployment{views: env.views()}
		for _, c := range clients {
			d.ids = append(d.ids, c.id)
			d.ops = append(d.ops, c.append)
		}
		d.finish = func(r *run, _ []*loop) (reads, leaseHits int) {
			for _, c := range clients {
				c.verify(r)
			}
			return 0, 0
		}
		d.stop = func() {
			closeAll(clients)
			env.stop()
		}
		return d, setup, nil
	})
}

func closeAll(clients []*dlogClient) {
	for _, c := range clients {
		c.cl.Close()
	}
}
