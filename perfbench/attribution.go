package main

import (
	"fmt"
	"sort"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// Stage attribution. Each sampled operation is cut at the transport events
// of its command into consecutive stages, so the stages of a fully matched
// operation add up to its latency:
//
//	ordered:  start → Proposal received by the coordinator          smr.submit
//	          → coordinator sends its first Phase2 for the instance  ringpaxos.propose
//	          → first Decision seen at the replying replica          ringpaxos.order
//	          → that replica sends the Response                      multiring.merge_wait
//	          → end                                                  smr.reply
//	lease:    start → LeaseRead received by the holder               smr.submit
//	          → holder sends the LeaseReply                          store.lease_serve
//	          → end                                                  smr.reply
//
// ringpaxos.propose covers the coordinator's batching wait and the write
// of its own vote, which precedes the Phase2 send. "Decision seen" is the
// earlier of receiving the Decision and sending it on: the last acceptor
// decides locally and only forwards. merge_wait thus covers the multi-ring
// merge, the executor queue and apply.

var stageNames = []string{
	"smr.submit", "ringpaxos.propose", "ringpaxos.order",
	"multiring.merge_wait", "store.lease_serve", "smr.reply",
}

// clientTrace is one benchmark client's identity and operation spans.
type clientTrace struct {
	addr  transport.Addr
	id    uint64
	spans []opSpan
}

type attribution struct {
	stages       map[string][]float64 // µs per sampled operation
	opUS         []float64            // latency of the same operations
	unattributed []float64            // per operation, share of its latency
	hops         []float64            // µs, Send to arrival in the inbox
}

type hopKey struct {
	kind     msg.Type
	key      cmdKey
	from, to transport.Addr
	ring     msg.RingID
	inst     msg.Instance
}

func attribute(events []event, clients []clientTrace) attribution {
	a := attribution{stages: make(map[string][]float64)}

	// Hops: pair each send with the arrival of the same message.
	type hop struct {
		send, recv int64
		hasS, hasR bool
	}
	hops := make(map[hopKey]*hop)
	for _, ev := range events {
		k := hopKey{kind: ev.kind, key: ev.key, ring: ev.ring, inst: ev.inst}
		if ev.send {
			k.from, k.to = ev.self, ev.peer
		} else {
			k.from, k.to = ev.peer, ev.self
		}
		h := hops[k]
		if h == nil {
			h = &hop{}
			hops[k] = h
		}
		if ev.send && (!h.hasS || ev.t < h.send) {
			h.send, h.hasS = ev.t, true
		}
		if !ev.send && (!h.hasR || ev.t < h.recv) {
			h.recv, h.hasR = ev.t, true
		}
	}
	for _, h := range hops {
		if h.hasS && h.hasR {
			a.hops = append(a.hops, us(h.recv-h.send))
		}
	}

	byKey := make(map[cmdKey][]event)
	for _, ev := range events {
		byKey[ev.key] = append(byKey[ev.key], ev)
	}
	byID := make(map[uint64]*clientTrace, len(clients))
	for i := range clients {
		byID[clients[i].id] = &clients[i]
	}
	// Each operation is matched to the sampled commands its client sent
	// while it ran; an operation whose lease read fell back to the ordered
	// path carries both, and the ordered one explains its latency.
	type opRef struct {
		client *clientTrace
		idx    int
	}
	chosen := make(map[opRef][]event)
	for key, evs := range byKey {
		c := byID[key.client]
		if c == nil {
			continue
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
		var first int64 = -1
		for _, ev := range evs {
			if ev.send && ev.self == c.addr && (ev.kind == msg.TProposal || ev.kind == msg.TLeaseRead) {
				first = ev.t
				break
			}
		}
		if first < 0 {
			continue
		}
		i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].end >= first })
		if i == len(c.spans) || c.spans[i].start > first {
			continue
		}
		ref := opRef{c, i}
		if prev, ok := chosen[ref]; !ok || (prev[0].key.lease && !key.lease) {
			chosen[ref] = evs
		}
	}
	for ref, evs := range chosen {
		span := ref.client.spans[ref.idx]
		var st map[string]int64
		if evs[0].key.lease {
			st = leaseStages(evs, span)
		} else {
			st = orderedStages(evs, span)
		}
		total := span.end - span.start
		if total <= 0 {
			continue
		}
		var sum int64
		for name, d := range st {
			a.stages[name] = append(a.stages[name], us(d))
			sum += d
		}
		a.opUS = append(a.opUS, us(total))
		a.unattributed = append(a.unattributed, float64(total-sum)/float64(total))
	}
	return a
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// firstEvent returns the earliest event matching pred (events are sorted).
func firstEvent(evs []event, pred func(event) bool) (event, bool) {
	for _, ev := range evs {
		if pred(ev) {
			return ev, true
		}
	}
	return event{}, false
}

// cut turns boundary timestamps (0 = not observed) into stage durations;
// a stage is known only when both of its boundaries were observed.
func cut(names []string, bounds []int64) map[string]int64 {
	st := make(map[string]int64)
	for i, name := range names {
		if bounds[i] != 0 && bounds[i+1] != 0 {
			st[name] = bounds[i+1] - bounds[i]
		}
	}
	return st
}

func orderedStages(evs []event, span opSpan) map[string]int64 {
	var tProp, tP2, tDec, tResp int64
	p2, okP2 := firstEvent(evs, func(e event) bool { return e.kind == msg.TPhase2 && e.send && e.coord })
	if okP2 {
		tP2 = p2.t
		if ev, ok := firstEvent(evs, func(e event) bool { return e.kind == msg.TProposal && !e.send && e.self == p2.self }); ok {
			tProp = ev.t
		}
	}
	if resp, ok := firstEvent(evs, func(e event) bool { return e.kind == msg.TResponse && e.send }); ok {
		tResp = resp.t
		if okP2 {
			if ev, ok := firstEvent(evs, func(e event) bool {
				return e.kind == msg.TDecision && e.self == resp.self && e.ring == p2.ring && e.inst == p2.inst
			}); ok {
				tDec = ev.t
			}
		}
	}
	return cut([]string{"smr.submit", "ringpaxos.propose", "ringpaxos.order", "multiring.merge_wait", "smr.reply"},
		[]int64{span.start, tProp, tP2, tDec, tResp, span.end})
}

func leaseStages(evs []event, span opSpan) map[string]int64 {
	var tRead, tReply int64
	if rd, ok := firstEvent(evs, func(e event) bool { return e.kind == msg.TLeaseRead && !e.send }); ok {
		tRead = rd.t
		if ev, ok := firstEvent(evs, func(e event) bool { return e.kind == msg.TLeaseReply && e.send && e.self == rd.self }); ok {
			tReply = ev.t
		}
	}
	return cut([]string{"smr.submit", "store.lease_serve", "smr.reply"},
		[]int64{span.start, tRead, tReply, span.end})
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stageTable renders each stage's share of the sampled operations' mean
// latency and names the largest.
func (a attribution) stageTable() []string {
	opMean := mean(a.opUS)
	lines := []string{fmt.Sprintf("stages over %d sampled operations (mean latency %.2f us):", len(a.opUS), opMean)}
	largest, largestSum := "", 0.0
	for _, name := range stageNames {
		xs := a.stages[name]
		if len(xs) == 0 {
			continue
		}
		// Mean over all sampled operations, so shares add up to 1 minus
		// the unattributed share.
		var sum float64
		for _, x := range xs {
			sum += x
		}
		share := 0.0
		if opMean > 0 {
			share = sum / float64(len(a.opUS)) / opMean
		}
		lines = append(lines, fmt.Sprintf("  %-22s p50 %10.2f us  p99 %10.2f us  share %5.1f%%",
			name, percentile(xs, 0.5), percentile(xs, 0.99), 100*share))
		if sum > largestSum {
			largest, largestSum = name, sum
		}
	}
	lines = append(lines, fmt.Sprintf("  unattributed share %.2f%%", 100*mean(a.unattributed)))
	if largest != "" {
		lines = append(lines, "largest stage: "+largest)
	}
	return lines
}
