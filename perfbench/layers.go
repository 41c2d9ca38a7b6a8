package main

import (
	"sort"

	"mrp/internal/msg"
)

// layerTotals accumulates what the traced windows of one run observed;
// dlog-append adds one window per pooled deployment.
type layerTotals struct {
	ops        float64 // completed operations
	reads      float64 // reads attempted
	leaseHits  float64 // reads served by a lease holder
	counters   counterDeltas
	backlog    []int
	shortfalls []float64
}

// observe runs one traced window: it brackets it with counter snapshots
// and the gauge sampler, and turns the tracer on for exactly its span.
func (lt *layerTotals) observe(tr *tracer, views []nodeView, body func()) {
	g := startGaugeSampler(views)
	before := takeSnapshot(views)
	tr.on.Store(true)
	body()
	tr.on.Store(false)
	after := takeSnapshot(views)
	backlog, shortfalls := g.finish()
	lt.backlog = append(lt.backlog, backlog...)
	lt.shortfalls = append(lt.shortfalls, shortfalls...)
	d := deltas(before, after)
	c := &lt.counters
	c.seconds += d.seconds
	c.valueInstances += d.valueInstances
	c.skipInstances += d.skipInstances
	c.retransmits += d.retransmits
	c.syncWrites += d.syncWrites
	c.diskBytes += d.diskBytes
	c.applies += d.applies
	if d.diskBusyMax > c.diskBusyMax {
		c.diskBusyMax = d.diskBusyMax
	}
}

// perOpTypes are the message types reported one by one.
var perOpTypes = []struct {
	name string
	t    msg.Type
}{
	{"Proposal", msg.TProposal},
	{"Phase2", msg.TPhase2},
	{"Decision", msg.TDecision},
	{"Response", msg.TResponse},
	{"LeaseRead", msg.TLeaseRead},
	{"LeaseReply", msg.TLeaseReply},
	{"LearnReq", msg.TLearnReq},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics sets the per-layer metrics of a traced run. Ratios whose
// base is zero on a workload (no reads, no proposals) read 0.
func layerMetrics(r *run, lt *layerTotals, tr *tracer, clients []clientTrace, untraced, traced float64) {
	ops := lt.ops
	var msgs, bytes float64
	for t := range tr.msgs {
		msgs += float64(tr.msgs[t].Load())
		bytes += float64(tr.bytes[t].Load())
	}
	r.set("transport.msgs_per_op", ratio(msgs, ops), "count")
	r.set("transport.bytes_per_op", ratio(bytes, ops), "B")
	for _, pt := range perOpTypes {
		r.set("transport.msgs_per_op."+pt.name, ratio(float64(tr.msgs[pt.t].Load()), ops), "count")
	}

	a := attribute(tr.events(), clients)
	r.set("transport.hop_us_p50", percentile(a.hops, 0.5), "us")
	r.set("smr.submit_us_p50", percentile(a.stages["smr.submit"], 0.5), "us")
	r.set("ringpaxos.propose_us_p50", percentile(a.stages["ringpaxos.propose"], 0.5), "us")
	r.set("ringpaxos.order_us_p50", percentile(a.stages["ringpaxos.order"], 0.5), "us")
	r.set("ringpaxos.order_us_p99", percentile(a.stages["ringpaxos.order"], 0.99), "us")
	r.set("multiring.merge_wait_us_p50", percentile(a.stages["multiring.merge_wait"], 0.5), "us")
	r.set("multiring.merge_wait_us_p99", percentile(a.stages["multiring.merge_wait"], 0.99), "us")
	r.set("store.lease_serve_us_p50", percentile(a.stages["store.lease_serve"], 0.5), "us")
	r.set("smr.reply_us_p50", percentile(a.stages["smr.reply"], 0.5), "us")
	r.set("unattributed_frac", mean(a.unattributed), "ratio")
	r.notes = append(r.notes, a.stageTable()...)

	r.set("store.lease_hit_ratio", ratio(lt.leaseHits, lt.reads), "ratio")
	r.set("store.applies_per_op", ratio(lt.counters.applies, ops), "count")
	ordered := lt.ops - lt.leaseHits // operations that went through ordering
	r.set("smr.cmds_per_proposal", ratio(ordered, float64(tr.clientProposals.Load())), "count")

	c := lt.counters
	r.set("ringpaxos.instances_per_op", ratio(c.valueInstances, ops), "count")
	r.set("ringpaxos.cmds_per_instance", ratio(float64(tr.instanceCmds.Load()), float64(tr.valueInstances.Load())), "count")
	r.set("ringpaxos.skips_per_s", ratio(c.skipInstances, c.seconds), "1/s")
	r.set("ringpaxos.retransmits_per_op", ratio(c.retransmits, ops), "count")

	var p50, max float64
	if n := len(lt.backlog); n > 0 {
		sort.Ints(lt.backlog)
		p50, max = float64(lt.backlog[n/2]), float64(lt.backlog[n-1])
	}
	r.set("multiring.backlog_p50", p50, "count")
	r.set("multiring.backlog_max", max, "count")
	r.set("multiring.skip_shortfall", mean(lt.shortfalls), "ratio")

	r.set("storage.sync_writes_per_op", ratio(c.syncWrites, ops), "count")
	r.set("storage.bytes_per_op", ratio(c.diskBytes, ops), "B")
	r.set("storage.busy_frac", c.diskBusyMax, "ratio")

	r.set("trace.overhead", 1-ratio(traced, untraced), "ratio")
}
