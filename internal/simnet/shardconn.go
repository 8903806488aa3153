package simnet

import (
	"fmt"
	"sync"

	"peerhood/internal/device"
)

// This file is the sharded world's minimal byte transport: the classic
// world's Conn/Listener surface reduced to what scale runs need so the
// S2/S3 byte-traffic scenarios can run over sharded links. Bytes are
// real — framed protocols run unchanged and byte counters land in
// ShardStats — but transfer is instantaneous: the sharded world has no
// per-connection sleeping clock, so bandwidth delay and jitter are not
// modelled (per-write loss from SetImpairment profiles is). Endpoints are
// addressed by NodeID, not device.Addr: the full daemon stack keeps
// running on the classic world, while harness-driven scale scenarios use
// this adapter to move real protocol frames between linked nodes.

// shardPortKey binds a listener to one (node, tech, port).
type shardPortKey struct {
	node NodeID
	tech device.Tech
	port uint16
}

// ShardConn is one endpoint of a byte stream over an established sharded
// link. Reads block until the peer writes, the peer closes (io.EOF), or
// the link breaks (ErrLinkLost, discarding buffered data — the radio is
// gone, exactly as on the classic Conn).
type ShardConn struct {
	w      *ShardedWorld
	key    shardLinkKey
	local  NodeID
	remote NodeID
	peer   *ShardConn
	rd     pipe

	closeOnce sync.Once
}

// LocalNode returns this endpoint's node.
func (c *ShardConn) LocalNode() NodeID { return c.local }

// RemoteNode returns the peer endpoint's node.
func (c *ShardConn) RemoteNode() NodeID { return c.remote }

// Tech returns the technology of the link the stream rides on.
func (c *ShardConn) Tech() device.Tech { return c.key.Tech }

// Read reads bytes sent by the peer.
func (c *ShardConn) Read(p []byte) (int, error) {
	return c.rd.read(p)
}

// Write sends bytes to the peer. The write fails with ErrLinkLost once
// the underlying link has broken; an impairment profile on the
// local->remote direction may silently drop the whole payload (loss is
// per Write call, so framed protocols lose whole frames, never
// fragments), with the drop drawn from the writing node's own stream so
// scripted runs replay identically.
func (c *ShardConn) Write(p []byte) (int, error) {
	if c.rd.closedLocally() {
		return 0, ErrClosed
	}
	w := c.w
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if _, ok := w.linkIdx[c.key]; !ok {
		w.mu.Unlock()
		return 0, ErrLinkLost
	}
	if imp, ok := w.impairments[[2]NodeID{c.local, c.remote}]; ok && imp.LossProb > 0 {
		if w.nodes[c.local].src.Bool(imp.LossProb) {
			w.stats.MessagesDropped++
			w.mu.Unlock()
			return len(p), nil
		}
	}
	w.stats.BytesWritten += int64(len(p))
	w.stats.MessagesDelivered++
	w.mu.Unlock()
	if err := c.peer.rd.write(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close shuts this endpoint down: the peer's pending reads drain and then
// see io.EOF, this endpoint's reads and writes fail with ErrClosed.
// Closing the second endpoint retires the stream (the link itself stays
// up — it belongs to the world's link lifecycle, not the stream).
func (c *ShardConn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.closeLocal()
		c.peer.rd.closeWrite()
		if c.peer.rd.closedLocally() {
			c.w.retireConn(c)
		}
	})
	return nil
}

// Quality samples the current link quality on the 0–255 scale from the
// endpoints' live positions, or 0 once the link is broken — the same
// noise-free curve sharded discovery reports.
func (c *ShardConn) Quality() int {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.linkIdx[c.key]; !ok {
		return 0
	}
	d := w.posAt(c.local, w.now).Dist(w.posAt(c.remote, w.now))
	return qualityAt(d, w.params[c.key.Tech], 0, nil)
}

// ShardListener accepts byte streams dialed to one (node, tech, port).
type ShardListener struct {
	w   *ShardedWorld
	key shardPortKey

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*ShardConn
	closed  bool
}

// Listen binds a port on a node's radio.
func (w *ShardedWorld) Listen(node NodeID, tech device.Tech, port uint16) (*ShardListener, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	if node < 0 || int(node) >= len(w.nodes) {
		return nil, fmt.Errorf("simnet: no node %v", node)
	}
	n := &w.nodes[node]
	if n.techMask&(1<<uint(tech)) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrTechMismatch, tech)
	}
	k := shardPortKey{node: node, tech: tech, port: port}
	if _, taken := w.listeners[k]; taken {
		return nil, fmt.Errorf("simnet: port %d already bound on %s/%v", port, n.name, tech)
	}
	l := &ShardListener{w: w, key: k}
	l.cond = sync.NewCond(&l.mu)
	if w.listeners == nil {
		w.listeners = make(map[shardPortKey]*ShardListener)
	}
	w.listeners[k] = l
	return l, nil
}

// Accept returns the next dialed-in stream, blocking until one arrives or
// the listener closes.
func (l *ShardListener) Accept() (*ShardConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close unbinds the port. Pending Accepts fail; already-accepted streams
// are unaffected, backlogged ones are torn down.
func (l *ShardListener) Close() error {
	l.w.mu.Lock()
	if l.w.listeners[l.key] == l {
		delete(l.w.listeners, l.key)
	}
	l.w.mu.Unlock()
	l.fail()
	return nil
}

// fail marks the listener closed, wakes Accept waiters, and tears down
// any backlogged streams nobody will ever accept.
func (l *ShardListener) fail() {
	l.mu.Lock()
	backlog := l.backlog
	l.backlog = nil
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range backlog {
		c.rd.fail(ErrClosed)
		c.peer.rd.fail(ErrClosed)
	}
}

// deliver queues an incoming stream for Accept, or tears it down if the
// listener closed between the dial and the handoff.
func (l *ShardListener) deliver(c *ShardConn) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.rd.fail(ErrClosed)
		c.peer.rd.fail(ErrClosed)
		return
	}
	l.backlog = append(l.backlog, c)
	l.cond.Signal()
	l.mu.Unlock()
}

// Dial opens a byte stream to a port on a remote node, mirroring the
// classic Dial's outcome classes: ErrRefused when nothing listens there,
// and the Connect checks (power, coverage, fault weather, the
// technology's stochastic connect fault) when no link is up yet. Dialing
// over an already-established link never re-draws the connect fault, so
// AutoLink scale runs can open streams on the links discovery made.
func (w *ShardedWorld) Dial(from, to NodeID, tech device.Tech, port uint16) (*ShardConn, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if from == to {
		w.mu.Unlock()
		return nil, fmt.Errorf("simnet: node %v dialing itself", from)
	}
	if from < 0 || int(from) >= len(w.nodes) || to < 0 || int(to) >= len(w.nodes) {
		w.mu.Unlock()
		return nil, fmt.Errorf("simnet: no such node pair %v->%v", from, to)
	}
	if w.nodes[from].techMask&(1<<uint(tech)) == 0 || w.nodes[to].techMask&(1<<uint(tech)) == 0 {
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrTechMismatch, tech)
	}
	l, ok := w.listeners[shardPortKey{node: to, tech: tech, port: port}]
	if !ok {
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: port %d on %s", ErrRefused, port, w.nodes[to].name)
	}
	if err := w.connectLocked(from, to, tech, w.now); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	key := linkKeyOf(from, to, tech)
	ca := &ShardConn{w: w, key: key, local: from, remote: to}
	cb := &ShardConn{w: w, key: key, local: to, remote: from}
	ca.peer, cb.peer = cb, ca
	// The sharded world keeps its own superstep time, not a clock, so its
	// pipes have no Settle accounting.
	ca.rd.init(nil)
	cb.rd.init(nil)
	if w.conns == nil {
		w.conns = make(map[shardLinkKey][]*ShardConn)
	}
	w.conns[key] = append(w.conns[key], ca)
	w.mu.Unlock()
	l.deliver(cb)
	return ca, nil
}

// retireConn drops a fully-closed stream pair from the per-link registry.
func (w *ShardedWorld) retireConn(c *ShardConn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs := w.conns[c.key]
	for i, x := range cs {
		if x == c || x == c.peer {
			cs = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	if len(cs) == 0 {
		delete(w.conns, c.key)
	} else {
		w.conns[c.key] = cs
	}
}

// failConnsLocked tears down every stream riding a link, called when the
// link itself goes away.
func (w *ShardedWorld) failConnsLocked(key shardLinkKey, err error) {
	cs, ok := w.conns[key]
	if !ok {
		return
	}
	delete(w.conns, key)
	for _, c := range cs {
		c.rd.fail(err)
		c.peer.rd.fail(err)
	}
}
