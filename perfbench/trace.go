package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/smr"
	"mrp/internal/transport"
)

// The transport-boundary tracer. Both deployments create every endpoint
// through DeployConfig.EndpointFor, so wrapping that factory observes each
// message a node sends (Send) and receives (a forwarding inbox) without
// touching program code. Counts are kept for every message; spans (one
// timestamped event per message and per command it carries) only for
// sampled commands of the benchmark's own clients, and they stay in memory
// until the run ends.

// sampleEvery keeps spans for one command in this many, so a 10 s traced
// run holds a few hundred thousand events rather than millions.
const sampleEvery = 8

// cmdKey identifies one client command: the (ClientID, Seq) pair that
// ordered commands, Responses, LeaseReads and LeaseReplies carry. Lease
// reads number their requests separately from ordered commands.
type cmdKey struct {
	client uint64
	seq    uint64
	lease  bool
}

// event is one traced message at one endpoint, for one sampled command.
type event struct {
	t     int64 // ns since the tracer's base
	key   cmdKey
	ring  msg.RingID
	inst  msg.Instance
	kind  msg.Type
	send  bool
	coord bool // a Phase2 carrying only its sender's vote: the coordinator's
	self  transport.Addr
	peer  transport.Addr
}

type tracer struct {
	base time.Time
	on   atomic.Bool

	msgs, bytes [256]atomic.Uint64 // sends by msg.Type
	// Coordinator Phase2 sends of value (non-skip) instances and the
	// commands they carry, smr batches unpacked.
	valueInstances, instanceCmds atomic.Uint64
	clientProposals              atomic.Uint64 // Proposals the benchmark's clients sent

	mu  sync.Mutex
	eps []*tracedEndpoint
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wrap decorates an EndpointFor factory.
func (t *tracer) wrap(inner func(transport.Addr) (transport.Endpoint, error)) func(transport.Addr) (transport.Endpoint, error) {
	return func(a transport.Addr) (transport.Endpoint, error) {
		ep, err := inner(a)
		if err != nil {
			return nil, err
		}
		return t.decorate(ep, false), nil
	}
}

// decorate wraps one endpoint; client marks a benchmark client's.
func (t *tracer) decorate(ep transport.Endpoint, client bool) transport.Endpoint {
	te := &tracedEndpoint{
		Endpoint: ep,
		t:        t,
		client:   client,
		in:       make(chan transport.Envelope),
		done:     make(chan struct{}),
	}
	t.mu.Lock()
	t.eps = append(t.eps, te)
	t.mu.Unlock()
	go te.forward()
	return te
}

// events returns every recorded event.
func (t *tracer) events() []event {
	t.mu.Lock()
	eps := append([]*tracedEndpoint(nil), t.eps...)
	t.mu.Unlock()
	var out []event
	for _, e := range eps {
		e.mu.Lock()
		out = append(out, e.events...)
		e.mu.Unlock()
	}
	return out
}

// sampled reports whether spans are kept for a command: one in
// sampleEvery of the benchmark clients' commands.
func sampled(client, seq uint64) bool {
	return seq%sampleEvery == 0 && client >= benchClientBase
}

// tracedEndpoint forwards to the wrapped endpoint. Its inbox is fed by a
// goroutine that stamps each envelope on arrival; the output channel is
// unbuffered so the wrapper adds no queue capacity of its own.
type tracedEndpoint struct {
	transport.Endpoint
	t         *tracer
	client    bool
	in        chan transport.Envelope
	done      chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	events []event
}

func (e *tracedEndpoint) Inbox() <-chan transport.Envelope { return e.in }

func (e *tracedEndpoint) Send(to transport.Addr, m msg.Message) error {
	if e.t.on.Load() {
		now := e.t.now()
		e.t.msgs[m.Type()].Add(1)
		e.t.bytes[m.Type()].Add(uint64(m.Size()))
		if e.client && m.Type() == msg.TProposal {
			e.t.clientProposals.Add(1)
		}
		if p2, ok := m.(*msg.Phase2); ok && p2.Votes == 1 && !p2.Value.Skip {
			e.t.valueInstances.Add(1)
			for _, en := range p2.Value.Batch {
				e.t.instanceCmds.Add(uint64(entryCmdCount(en)))
			}
		}
		e.note(now, true, to, m)
	}
	return e.Endpoint.Send(to, m)
}

func (e *tracedEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.done) })
	return e.Endpoint.Close()
}

func (e *tracedEndpoint) forward() {
	defer close(e.in)
	for env := range e.Endpoint.Inbox() {
		if e.t.on.Load() {
			e.note(e.t.now(), false, env.From, env.Msg)
		}
		select {
		case e.in <- env:
		case <-e.done:
			return
		}
	}
}

// note records one event per sampled command the message carries.
func (e *tracedEndpoint) note(t int64, send bool, peer transport.Addr, m msg.Message) {
	ev := event{t: t, kind: m.Type(), send: send, self: e.Addr(), peer: peer}
	var keys []cmdKey
	switch m := m.(type) {
	case *msg.Proposal:
		keys = e.sampledCmds(keys, msg.Entry{Proposer: m.ProposerID, Seq: m.Seq, Data: m.Payload})
	case *msg.Phase2:
		ev.ring, ev.inst, ev.coord = m.Ring, m.Instance, m.Votes == 1
		for _, en := range m.Value.Batch {
			keys = e.sampledCmds(keys, en)
		}
	case *msg.Decision:
		ev.ring, ev.inst = m.Ring, m.Instance
		for _, en := range m.Value.Batch {
			keys = e.sampledCmds(keys, en)
		}
	case *msg.Response:
		if sampled(m.ClientID, m.Seq) {
			keys = append(keys, cmdKey{client: m.ClientID, seq: m.Seq})
		}
	case *msg.LeaseRead:
		if sampled(m.ClientID, m.Seq) {
			keys = append(keys, cmdKey{client: m.ClientID, seq: m.Seq, lease: true})
		}
	case *msg.LeaseReply:
		if sampled(m.ClientID, m.Seq) {
			keys = append(keys, cmdKey{client: m.ClientID, seq: m.Seq, lease: true})
		}
	}
	if len(keys) == 0 {
		return
	}
	e.mu.Lock()
	for _, k := range keys {
		ev.key = k
		e.events = append(e.events, ev)
	}
	e.mu.Unlock()
}

// sampledCmds appends the sampled commands one proposal entry carries. A
// batch of one is proposed under the command's own (ClientID, Seq); a real
// smr batch is unpacked so that its commands inherit the batch's stage
// times.
func (e *tracedEndpoint) sampledCmds(dst []cmdKey, en msg.Entry) []cmdKey {
	if !smr.IsBatch(en.Data) {
		if sampled(uint64(en.Proposer), en.Seq) {
			dst = append(dst, cmdKey{client: uint64(en.Proposer), seq: en.Seq})
		}
		return dst
	}
	cmds, _ := smr.DecodeBatch(en.Data) // a malformed batch carries no commands
	for _, c := range cmds {
		if sampled(c.ClientID, c.Seq) {
			dst = append(dst, cmdKey{client: c.ClientID, seq: c.Seq})
		}
	}
	return dst
}

// entryCmdCount is the number of commands one proposal entry carries.
func entryCmdCount(en msg.Entry) int {
	if !smr.IsBatch(en.Data) {
		return 1
	}
	cmds, _ := smr.DecodeBatch(en.Data) // a malformed batch carries no commands
	return len(cmds)
}
