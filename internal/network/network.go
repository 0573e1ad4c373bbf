// Package network provides the simulated transport that DStress nodes
// communicate over.
//
// The paper's evaluation (§5) runs nodes on EC2 instances and reports two
// quantities per experiment: computation time and traffic per node. This
// package reproduces the measurement infrastructure: every node owns an
// Endpoint, messages are delivered in-process through unbounded mailboxes
// (so protocol goroutines can never deadlock on back-pressure), and the hub
// keeps per-node byte and message counters that the benchmark harness reads
// after a run. Every message is charged its tcpnet frame size (FrameBytes),
// so the hub and the TCP transport count the same bytes for the same
// traffic.
//
// Messages are addressed by (sender, receiver, tag). Tags multiplex the many
// concurrent protocol instances a node participates in — a node may be a
// member of several blocks (§5.4 observes nodes "handle multiple blocks in
// parallel") plus the relay for its own vertex's transfers.
package network

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// NodeID identifies a node (a participant machine, not a vertex).
type NodeID int32

// Transport is one node's view of the messaging layer: point-to-point
// (peer, tag)-addressed messages with per-(sender, tag) FIFO ordering, plus
// traffic counters. Two implementations exist: the in-process hub Endpoint
// in this package (simulation and tests) and tcpnet.Peer (real deployments
// over TCP). Protocol layers (ot, gmw, transfer, vertex, cluster) are
// written against this interface, so the same protocol code runs unchanged
// in a single process or across machines.
//
// Send must not block on the receiver making progress (implementations
// buffer unboundedly), because MPC rounds have all-to-all traffic where
// everyone sends before anyone receives. Recv blocks until a matching
// message arrives, the context is canceled, or the transport is shut down;
// the latter two return an error, so a dead peer or a canceled run
// surfaces as a failure instead of a permanent hang.
type Transport interface {
	// ID returns the node this transport belongs to.
	ID() NodeID
	// Send delivers payload to node `to` under tag. The payload is copied
	// (or serialized) before Send returns, so callers may reuse the buffer.
	Send(to NodeID, tag string, payload []byte) error
	// Recv blocks until a message from `from` with the given tag arrives or
	// ctx is done, in which case it returns ctx's error. Messages queued
	// before cancellation are still delivered first.
	Recv(ctx context.Context, from NodeID, tag string) ([]byte, error)
	// Stats returns this node's traffic counters.
	Stats() Stats
}

// FrameBytes is the on-the-wire size of one message as tcpnet frames it:
// uint32 length | int32 from | uint16 tagLen | tag | payload. The hub
// charges every message the same size.
func FrameBytes(tag string, payload int) int64 {
	return int64(4 + 4 + 2 + len(tag) + payload)
}

// Network is the in-process message hub.
type Network struct {
	mu        sync.Mutex
	endpoints map[NodeID]*Endpoint

	// Traffic accounting. Per-tag-prefix counters live on each endpoint
	// (Endpoint.TagStats), so every node sees its own traffic per protocol
	// layer and per query, as a tcpnet peer does.
	sentBytes map[NodeID]int64
	recvBytes map[NodeID]int64
	sentMsgs  map[NodeID]int64
}

// New creates an empty network.
func New() *Network {
	return &Network{
		endpoints: make(map[NodeID]*Endpoint),
		sentBytes: make(map[NodeID]int64),
		recvBytes: make(map[NodeID]int64),
		sentMsgs:  make(map[NodeID]int64),
	}
}

// Endpoint returns (creating if necessary) the endpoint for id.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.endpoints[id]; ok {
		return e
	}
	e := &Endpoint{net: n, id: id, boxes: make(map[boxKey]*mailbox), tags: make(map[string]*TagStat)}
	n.endpoints[id] = e
	return e
}

func (n *Network) account(from, to *Endpoint, tag string, payload int) {
	total := FrameBytes(tag, payload)
	prefix := TagPrefix(tag)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sentBytes[from.id] += total
	n.recvBytes[to.id] += total
	n.sentMsgs[from.id]++
	out := from.tagStat(prefix)
	out.BytesSent += total
	out.MessagesSent++
	to.tagStat(prefix).BytesReceived += total
}

// Stats is a snapshot of a node's traffic counters.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	MessagesSent  int64
}

// TagStat aggregates one node's traffic carried under one tag prefix — the
// protocol layer the bytes belong to.
type TagStat struct {
	BytesSent     int64
	BytesReceived int64
	MessagesSent  int64
}

// TagTracker is optionally implemented by transports that keep per-tag-
// prefix traffic counters (the hub Endpoint and tcpnet.Peer both do). It is
// deliberately NOT part of Transport: the Transport contract is frozen by
// the networktest conformance suite, and observability is an optional
// capability discovered by type assertion.
type TagTracker interface {
	TagStats() map[string]TagStat
}

// TagPrefix returns the component a tag's traffic is aggregated under. For
// plain tags it is the first "/"-separated component: the coarse protocol
// layer ("blk", "tx", "init", "aggsh", …). For query-rooted tags
// ("q/<id>/<layer>/...") it keeps the first three components, so counters
// stay separable per layer AND per query, and a finished query's whole
// counter set can be retired by its "q/<id>" root.
func TagPrefix(tag string) string {
	i := strings.IndexByte(tag, '/')
	if i < 0 {
		return tag
	}
	if tag[:i] != "q" {
		return tag[:i]
	}
	rest := tag[i+1:]
	j := strings.IndexByte(rest, '/')
	if j < 0 {
		return tag
	}
	layer := rest[j+1:]
	if k := strings.IndexByte(layer, '/'); k >= 0 {
		return tag[:i+1+j+1+k]
	}
	return tag
}

// TagRetirer is optionally implemented by transports that can retire the
// counters and mailboxes accumulated under one tag namespace (a finished
// query's "q/<id>" root). Like TagTracker it is discovered by type
// assertion, keeping the Transport contract frozen. Without retirement a
// standing fleet would leak one counter set and one set of drained
// mailboxes per query served.
type TagRetirer interface {
	RetireTagPrefix(prefix string)
}

// NodeStats returns the traffic snapshot for one node.
func (n *Network) NodeStats(id NodeID) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		BytesSent:     n.sentBytes[id],
		BytesReceived: n.recvBytes[id],
		MessagesSent:  n.sentMsgs[id],
	}
}

// TotalBytes returns the sum of bytes sent by all nodes.
func (n *Network) TotalBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t int64
	for _, b := range n.sentBytes {
		t += b
	}
	return t
}

// MaxNodeBytes returns the largest per-node sent+received byte count: the
// "traffic per node" quantity Figures 4–6 plot.
func (n *Network) MaxNodeBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var m int64
	for id := range n.endpoints {
		if v := n.sentBytes[id] + n.recvBytes[id]; v > m {
			m = v
		}
	}
	return m
}

// AvgNodeBytes returns the mean per-node sent+received byte count over all
// endpoints that exist.
func (n *Network) AvgNodeBytes() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.endpoints) == 0 {
		return 0
	}
	var t int64
	for id := range n.endpoints {
		t += n.sentBytes[id] + n.recvBytes[id]
	}
	return float64(t) / float64(len(n.endpoints))
}

// RetireTagPrefix drops every counter and mailbox filed under prefix (a
// component boundary: "q/3" retires "q/3" and "q/3/...", never "q/30").
// Called after a query's result is reported so standing hubs don't grow a
// counter set and mailbox set per query served. Node-level counters
// (sentBytes &c.) are cumulative by design and are not touched.
func (n *Network) RetireTagPrefix(prefix string) {
	n.mu.Lock()
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, e := range n.endpoints {
		for k := range e.tags {
			if tagUnder(k, prefix) {
				delete(e.tags, k)
			}
		}
		eps = append(eps, e)
	}
	n.mu.Unlock()
	// Sweep mailboxes outside n.mu: Endpoint.box takes only e.mu.
	for _, e := range eps {
		e.mu.Lock()
		for k := range e.boxes {
			if tagUnder(k.tag, prefix) {
				delete(e.boxes, k)
			}
		}
		e.mu.Unlock()
	}
}

// tagUnder reports whether tag equals prefix or lives under it at a "/"
// component boundary.
func tagUnder(tag, prefix string) bool {
	return tag == prefix || (strings.HasPrefix(tag, prefix) && len(tag) > len(prefix) && tag[len(prefix)] == '/')
}

// ResetStats zeroes all traffic counters (between experiment phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sentBytes = make(map[NodeID]int64)
	n.recvBytes = make(map[NodeID]int64)
	n.sentMsgs = make(map[NodeID]int64)
	for _, e := range n.endpoints {
		e.tags = make(map[string]*TagStat)
	}
}

// ---------------------------------------------------------------------------
// Endpoint and mailboxes
// ---------------------------------------------------------------------------

type boxKey struct {
	from NodeID
	tag  string
}

// mailbox is an unbounded FIFO queue guarded by a condition variable.
// Unbounded buffering is deliberate: GMW rounds have all-to-all traffic and
// bounded channels could deadlock when two parties send before receiving.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue [][]byte
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(p []byte) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.cond.Signal()
}

func (m *mailbox) get(ctx context.Context) ([]byte, error) {
	m.mu.Lock()
	// Fast path: a queued message is delivered even when ctx is already
	// done, matching the drain-before-fail semantics of tcpnet.
	if len(m.queue) > 0 {
		p := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()
	if ctx.Done() != nil {
		// Wake the condition variable when ctx fires. Broadcasting under
		// the lock is essential: it guarantees the waiter is either parked
		// in Wait or has not yet re-checked ctx.Err, so no wakeup is lost.
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.cond.Wait()
	}
	p := m.queue[0]
	m.queue = m.queue[1:]
	return p, nil
}

// Endpoint is one node's attachment to the network. It is the in-process
// Transport implementation.
type Endpoint struct {
	net *Network
	id  NodeID

	mu    sync.Mutex
	boxes map[boxKey]*mailbox

	// tags is this node's traffic per tag prefix, guarded by net.mu.
	tags map[string]*TagStat
}

var (
	_ Transport  = (*Endpoint)(nil)
	_ TagTracker = (*Endpoint)(nil)
)

// ID returns the node id this endpoint belongs to.
func (e *Endpoint) ID() NodeID { return e.id }

// Network returns the owning hub (for stats access).
func (e *Endpoint) Network() *Network { return e.net }

// Stats returns this endpoint's traffic counters.
func (e *Endpoint) Stats() Stats { return e.net.NodeStats(e.id) }

// TagStats returns this node's traffic per tag prefix: the bytes and
// messages it sent and the bytes it received under each protocol layer.
func (e *Endpoint) TagStats() map[string]TagStat {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	out := make(map[string]TagStat, len(e.tags))
	for k, v := range e.tags {
		out[k] = *v
	}
	return out
}

// tagStat returns the counter for one tag prefix, creating it. Caller
// holds net.mu.
func (e *Endpoint) tagStat(prefix string) *TagStat {
	ts := e.tags[prefix]
	if ts == nil {
		ts = &TagStat{}
		e.tags[prefix] = ts
	}
	return ts
}

func (e *Endpoint) box(from NodeID, tag string) *mailbox {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := boxKey{from, tag}
	b, ok := e.boxes[k]
	if !ok {
		b = newMailbox()
		e.boxes[k] = b
	}
	return b
}

// Send delivers payload to node `to` under the given tag. The payload is
// copied, so callers may reuse their buffer. In-process delivery cannot
// fail; the error return satisfies Transport.
func (e *Endpoint) Send(to NodeID, tag string, payload []byte) error {
	dst := e.net.Endpoint(to)
	cp := make([]byte, len(payload))
	copy(cp, payload)
	e.net.account(e, dst, tag, len(payload))
	dst.box(e.id, tag).put(cp)
	return nil
}

// Recv blocks until a message from `from` with the given tag arrives and
// returns its payload, or until ctx is done.
func (e *Endpoint) Recv(ctx context.Context, from NodeID, tag string) ([]byte, error) {
	return e.box(from, tag).get(ctx)
}

// Exchange sends payload to peer and receives the peer's payload under the
// same tag: the symmetric step most MPC rounds need.
func (e *Endpoint) Exchange(ctx context.Context, peer NodeID, tag string, payload []byte) ([]byte, error) {
	if err := e.Send(peer, tag, payload); err != nil {
		return nil, err
	}
	return e.Recv(ctx, peer, tag)
}

// Tag builds a hierarchical tag from parts; a helper so protocol layers
// construct collision-free namespaces. Strings and integers are appended
// directly (tags are built on every protocol round); any other part is
// formatted with fmt.Sprint, so the result always equals the parts'
// fmt.Sprint forms joined by "/".
func Tag(parts ...interface{}) string {
	var buf [64]byte
	b := buf[:0]
	for i, p := range parts {
		if i > 0 {
			b = append(b, '/')
		}
		switch v := p.(type) {
		case string:
			b = append(b, v...)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case uint64:
			b = strconv.AppendUint(b, v, 10)
		case NodeID:
			b = strconv.AppendInt(b, int64(v), 10)
		default:
			b = fmt.Append(b, v)
		}
	}
	return string(b)
}
