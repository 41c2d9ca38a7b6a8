package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/transport"
	"mrp/internal/ycsb"
)

// The kv workloads share one MRP-Store shape: 3 partitions × 3 replicas,
// each partition on its own ring with no global ring (Figure 4's "MRP-Store
// (indep. rings)"), in-memory acceptors, Δ = 5 ms, λ = 9000, 10 000
// preloaded 100 B records, and checkpointing plus log trimming on so the
// heap reaches a steady state.
const (
	kvRecords   = 10_000
	kvValueSize = 100
	kvPool      = 2 // fresh deployments per run
	// kvWarmup covers a deployment's first seconds, before its leases
	// settle into the steady state (see README.md).
	kvWarmup       = 4.0
	leaseWarmLimit = 10 * time.Second
)

type kvEnv struct {
	net *netsim.Network
	d   *store.Deployment
	tr  *tracer // nil when untraced
}

func (e *kvEnv) stop() {
	e.d.Stop()
	e.net.Close()
}

// newNet is the simulated LAN every workload runs on: 50 µs links at
// 10 Gbit/s. netsim delivers anything shorter than its 2.5 ms minimum
// sleep at once, so latency is processor time plus modeled disk time.
func newNet() *netsim.Network {
	return netsim.New(
		netsim.WithUniformLatency(50*time.Microsecond),
		netsim.WithBandwidth(10<<30/8),
	)
}

// kvRecordsFor derives the preloaded records from the seed.
func kvRecordsFor(seed int64) []store.Entry {
	recs := make([]store.Entry, kvRecords)
	for i := range recs {
		v := make([]byte, kvValueSize)
		splitmix64(v, seed, 0, uint64(i))
		recs[i] = store.Entry{Key: ycsb.Key(i), Value: v}
	}
	return recs
}

// setupKV deploys, preloads, and waits until every partition serves lease
// reads; the returned duration is the workload's set-up time.
func setupKV(records []store.Entry, tr *tracer) (*kvEnv, time.Duration, error) {
	t0 := time.Now()
	net := newNet()
	plain := func(a transport.Addr) (transport.Endpoint, error) { return net.Endpoint(a), nil }
	cfg := store.DeployConfig{
		EndpointFor:     plain,
		Partitions:      3,
		Replicas:        3,
		StorageMode:     storage.InMemory,
		SkipInterval:    skipInterval,
		SkipRate:        skipRate,
		RetryTimeout:    300 * time.Millisecond,
		CheckpointEvery: time.Second,
		TrimInterval:    500 * time.Millisecond,
	}
	if tr != nil {
		cfg.EndpointFor = tr.wrap(plain)
	}
	d, err := store.Deploy(cfg)
	if err != nil {
		net.Close()
		return nil, 0, fmt.Errorf("deploy store: %w", err)
	}
	d.Preload(records)
	env := &kvEnv{net: net, d: d, tr: tr}
	if err := env.warmLeases(records); err != nil {
		env.stop()
		return nil, 0, err
	}
	return env, time.Since(t0), nil
}

// client creates benchmark client i on its own endpoint.
func (e *kvEnv) client(i int) *store.Client {
	var ep transport.Endpoint = e.net.Endpoint(clientAddr(i))
	if e.tr != nil {
		ep = e.tr.decorate(ep, true)
	}
	return e.d.NewClientAt(ep, benchClientBase+uint64(i))
}

// warmLeases blocks until a read of one key per partition is served by
// the partition's lease holder.
func (e *kvEnv) warmLeases(records []store.Entry) error {
	part := e.d.Partitioner()
	probe := make([]string, e.d.Partitions())
	for _, r := range records {
		probe[part.PartitionOf(r.Key)] = r.Key
	}
	cl := e.client(9) // measured clients are numbered dep*10 + 0 or 1
	defer cl.Close()
	deadline := time.Now().Add(leaseWarmLimit)
	for p, key := range probe {
		for {
			before := cl.LeaseReads()
			if _, err := cl.Read(key); err == nil && cl.LeaseReads() > before {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("partition %d serves no lease reads after %v", p, leaseWarmLimit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (e *kvEnv) views() []nodeView {
	var vs []nodeView
	for _, hs := range e.d.Replicas {
		for _, h := range hs {
			sm := h.SM
			vs = append(vs, nodeView{
				node:    h.Node,
				learner: h.Learner,
				disks:   []*storage.Disk{h.Disk},
				smOps:   func() uint64 { return sm.Stats().Ops },
			})
		}
	}
	return vs
}

func keyIndex(key string) int {
	i, _ := strconv.Atoi(key[len("user"):]) // ycsb.Key format
	return i
}

// kvClient is one closed-loop client of a kv workload together with what
// its output check needs.
type kvClient struct {
	id int // unique within the run
	i  int // position among the deployment's clients: which half it writes
	cl *store.Client
	op func() error

	mismatches int // kv-read: values differing from the preload
	// kv-update: the counter of each key's last acknowledged value and of
	// updates that failed since (the store may or may not have applied
	// them).
	lastAck     []uint64
	failedSince map[int][]uint64
	records     []store.Entry
}

// newKVClient builds client i. kv-read draws Zipfian keys over the whole
// key space (the YCSB-C generator); kv-update draws them over the client's
// own half (even or odd keys), so every key has one writer and its last
// acknowledged value is known.
func newKVClient(e *kvEnv, id, i int, seed int64, update bool, records []store.Entry) *kvClient {
	c := &kvClient{id: id, i: i, cl: e.client(id), records: records}
	space := kvRecords
	if update {
		space = kvRecords / 2
	}
	gen := ycsb.New(ycsb.Config{Workload: ycsb.WorkloadC, RecordCount: space, ValueSize: kvValueSize, Seed: seed*1000 + int64(id)})
	if !update {
		c.op = func() error {
			key := gen.Next().Key
			v, err := c.cl.Read(key)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, records[keyIndex(key)].Value) {
				c.mismatches++
			}
			return nil
		}
		return c
	}
	c.lastAck = make([]uint64, kvRecords)
	c.failedSince = make(map[int][]uint64)
	val := make([]byte, kvValueSize)
	var n uint64
	c.op = func() error {
		k := keyIndex(gen.Next().Key)*2 + i
		n++
		splitmix64(val, seed, uint64(id+1), n)
		if err := c.cl.Update(ycsb.Key(k), val); err != nil {
			c.failedSince[k] = append(c.failedSince[k], n)
			return err
		}
		c.lastAck[k] = n
		delete(c.failedSince, k)
		return nil
	}
	return c
}

// verify checks the client's outputs: kv-read values equal the preload;
// after kv-update every key the client wrote reads back as its last
// acknowledged value (or as a later update that failed ambiguously).
func (c *kvClient) verify(r *run, seed int64, update bool) {
	r.check(c.mismatches == 0, "kv-read client %d: %d values differ from the preloaded bytes", c.id, c.mismatches)
	if !update {
		return
	}
	var want []byte
	bad, checked := 0, 0
	for k, n := range c.lastAck {
		if n == 0 && len(c.failedSince[k]) == 0 {
			continue
		}
		checked++
		got, err := c.cl.Read(ycsb.Key(k))
		if err != nil {
			bad++
			continue
		}
		ok := false
		for _, cand := range append([]uint64{n}, c.failedSince[k]...) {
			if cand == 0 { // no update acknowledged: the preload is possible
				want = c.records[k].Value
			} else {
				want = make([]byte, kvValueSize)
				splitmix64(want, seed, uint64(c.id+1), cand)
			}
			if bytes.Equal(got, want) {
				ok = true
				break
			}
		}
		if !ok {
			bad++
		}
	}
	r.check(checked > 0, "kv-update client %d: no acknowledged update to read back", c.id)
	r.check(bad == 0, "kv-update client %d: %d of %d keys do not read back their last acknowledged value", c.id, bad, checked)
}

func runKV(cfg runConfig, update bool) (run, error) {
	records := kvRecordsFor(cfg.seed)
	return runWorkload(cfg, kvPool, kvWarmup, func(dep int, tr *tracer) (*deployment, time.Duration, error) {
		env, setup, err := setupKV(records, tr)
		if err != nil {
			return nil, 0, err
		}
		var clients []*kvClient
		d := &deployment{views: env.views()}
		for i := 0; i < clientsPerRun; i++ {
			c := newKVClient(env, dep*10+i, i, cfg.seed, update, records)
			clients = append(clients, c)
			d.ids = append(d.ids, c.id)
			d.ops = append(d.ops, c.op)
		}
		hitsBefore := make([]int64, len(clients))
		d.begin = func() {
			for i, c := range clients {
				hitsBefore[i] = c.cl.LeaseReads()
			}
		}
		d.finish = func(r *run, loops []*loop) (reads, leaseHits int) {
			for i, c := range clients {
				if !update {
					reads += loops[i].attempted
				}
				leaseHits += int(c.cl.LeaseReads() - hitsBefore[i]) // before verify's read-back
				c.verify(r, cfg.seed, update)
			}
			return reads, leaseHits
		}
		d.stop = func() {
			for _, c := range clients {
				c.cl.Close()
			}
			env.stop()
		}
		return d, setup, nil
	})
}
