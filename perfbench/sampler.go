package main

import (
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/storage"
)

// nodeView is what the sampler reads from one replica or server handle:
// public counters and gauges only.
type nodeView struct {
	node    *multiring.Node
	learner *multiring.Learner
	disks   []*storage.Disk
	smOps   func() uint64 // store.SM.Stats().Ops; nil for dLog servers
}

type procKey struct {
	node int
	ring msg.RingID
}

type procCounters struct{ instances, skips, retransmits uint64 }

type diskCounters struct{ syncOps, bytes uint64 }

// snapshot holds the cumulative counters at one instant.
type snapshot struct {
	at    time.Time
	procs map[procKey]procCounters
	disks map[*storage.Disk]diskCounters
	smOps uint64
}

func takeSnapshot(views []nodeView) snapshot {
	s := snapshot{
		at:    time.Now(),
		procs: make(map[procKey]procCounters),
		disks: make(map[*storage.Disk]diskCounters),
	}
	for i, v := range views {
		for _, ring := range v.node.Rings() {
			p, ok := v.node.Process(ring)
			if !ok {
				continue
			}
			st := p.Stats()
			s.procs[procKey{i, ring}] = procCounters{
				instances:   st.Instances.Load(),
				skips:       st.Skips.Load(),
				retransmits: st.Retransmits.Load(),
			}
		}
		for _, d := range v.disks {
			syncOps, _, bytes := d.Stats()
			s.disks[d] = diskCounters{syncOps, bytes}
		}
		if v.smOps != nil {
			s.smOps += v.smOps()
		}
	}
	return s
}

// counterDeltas are the layer counters accumulated between two snapshots.
type counterDeltas struct {
	seconds        float64
	valueInstances float64 // ordered instances carrying commands
	skipInstances  float64
	retransmits    float64
	syncWrites     float64
	diskBytes      float64
	diskBusyMax    float64 // busiest device's modeled busy fraction
	applies        float64
}

func deltas(a, b snapshot) counterDeltas {
	d := counterDeltas{seconds: b.at.Sub(a.at).Seconds()}
	// Instances counts at the coordinator only; Skips counts at every
	// learner that delivers the skip, so a ring's skip instances are the
	// largest per-process count.
	instances := make(map[msg.RingID]uint64)
	skips := make(map[msg.RingID]uint64)
	for k, end := range b.procs {
		start := a.procs[k]
		instances[k.ring] += end.instances - start.instances
		if s := end.skips - start.skips; s > skips[k.ring] {
			skips[k.ring] = s
		}
		d.retransmits += float64(end.retransmits - start.retransmits)
	}
	for ring, n := range instances {
		if v := float64(n) - float64(skips[ring]); v > 0 {
			d.valueInstances += v
		}
		d.skipInstances += float64(skips[ring])
	}
	for disk, end := range b.disks {
		start := a.disks[disk]
		syncs := end.syncOps - start.syncOps
		bytes := end.bytes - start.bytes
		d.syncWrites += float64(syncs)
		d.diskBytes += float64(bytes)
		m := disk.Model()
		busy := float64(syncs) * m.SyncLatency.Seconds()
		if m.Bandwidth > 0 {
			busy += float64(bytes) / float64(m.Bandwidth)
		}
		if f := busy / d.seconds; f > d.diskBusyMax {
			d.diskBusyMax = f
		}
	}
	d.applies = float64(b.smOps - a.smOps)
	return d
}

// gaugeSampler reads, every millisecond, each ring process's decision
// backlog (decided instances the merge has not yet taken) and each
// learner's merge frontier.
type gaugeSampler struct {
	views []nodeView
	stop  chan struct{}
	done  chan struct{}

	backlog     []int // one sample per (process, tick)
	first, last map[procKey]msg.Instance
	firstAt     time.Time
	lastAt      time.Time
}

func startGaugeSampler(views []nodeView) *gaugeSampler {
	g := &gaugeSampler{
		views: views,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go g.run()
	return g
}

func (g *gaugeSampler) run() {
	defer close(g.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		g.sample()
		select {
		case <-tick.C:
		case <-g.stop:
			g.sample()
			return
		}
	}
}

func (g *gaugeSampler) sample() {
	front := make(map[procKey]msg.Instance)
	for i, v := range g.views {
		for _, ring := range v.node.Rings() {
			if p, ok := v.node.Process(ring); ok {
				g.backlog = append(g.backlog, len(p.Decisions()))
			}
		}
		for _, ri := range v.learner.Frontier() {
			front[procKey{i, ri.Ring}] = ri.Instance
		}
	}
	if g.first == nil {
		g.first, g.firstAt = front, time.Now()
	}
	g.last, g.lastAt = front, time.Now()
}

// finish stops sampling and returns the backlog samples and, per
// (learner, ring) pair, the skip shortfall: one minus the merge frontier's
// advance relative to λ instances per second. A ring that falls behind λ
// stalls the merge at every learner subscribed to it.
func (g *gaugeSampler) finish() (backlog []int, shortfalls []float64) {
	close(g.stop)
	<-g.done
	want := float64(skipRate) * g.lastAt.Sub(g.firstAt).Seconds()
	if want <= 0 {
		return g.backlog, nil
	}
	for k, end := range g.last {
		if start, ok := g.first[k]; ok {
			shortfalls = append(shortfalls, 1-float64(end-start)/want)
		}
	}
	return g.backlog, shortfalls
}
