package library

import (
	"io"
	"sync"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/plugin"
)

// VirtualConnection is the connection object applications hold (the
// thesis' VirtualConnection, fig 2.5). The transport underneath it can be
// replaced atomically by a handover (ChangeConnection, §5.2.1): reads and
// writes that fail on a dying transport wait up to the library's SwapWait
// for a replacement and then resume on it. The application keeps a single
// object for the logical connection's whole life.
type VirtualConnection struct {
	lib    *Library
	id     uint64
	target device.Addr
	svc    device.ServiceInfo

	mu       sync.Mutex
	cur      plugin.Conn
	bridge   device.Addr // first hop if bridged; zero if direct
	gen      int
	genCh    chan struct{} // closed when gen increments
	closed   bool
	closeCh  chan struct{}
	sending  bool // result-routing flag (§5.3): false suppresses handover
	onSwap   func(oldRemote, newRemote device.Addr)
	swapped  int // total successful swaps, for experiments
	restarts int // service reconnections (§5.2.2)

	// swapWaits are the clock Waits of goroutines in awaitSwap, woken by
	// the next swap or Close (the manual clock's Settle accounting).
	// Guarded by mu.
	swapWaits []*clock.Wait

	// cont, when non-nil, is the session-continuity window layer
	// (continuity.go): Read/Write go through sequence-numbered records and
	// handovers resume instead of tearing the stream. Set once before any
	// data flows, never mutated after, so the nil check is lock-free.
	cont *continuityState
}

func newVirtualConnection(l *Library, raw plugin.Conn, id uint64, target device.Addr, svc device.ServiceInfo, bridge device.Addr) *VirtualConnection {
	return &VirtualConnection{
		lib:     l,
		id:      id,
		target:  target,
		svc:     svc,
		cur:     raw,
		bridge:  bridge,
		genCh:   make(chan struct{}),
		closeCh: make(chan struct{}),
		sending: true,
	}
}

// ID returns the logical connection ID (stable across handovers).
func (vc *VirtualConnection) ID() uint64 { return vc.id }

// Target returns the logical peer device — the service owner, regardless
// of any bridges in between.
func (vc *VirtualConnection) Target() device.Addr { return vc.target }

// Service returns the connected service descriptor.
func (vc *VirtualConnection) Service() device.ServiceInfo { return vc.svc }

// Bridge returns the current route's first hop, or the zero address when
// connected directly.
func (vc *VirtualConnection) Bridge() device.Addr {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.bridge
}

// RemoteAddr returns the current transport peer (dialed device or last
// bridge hop).
func (vc *VirtualConnection) RemoteAddr() device.Addr {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.cur.RemoteAddr()
}

// Quality samples the current transport's link quality — what the
// monitoring/handover thread listens to (§2.2.2, fig 5.5 state 1).
func (vc *VirtualConnection) Quality() int {
	vc.mu.Lock()
	c := vc.cur
	vc.mu.Unlock()
	return c.Quality()
}

// Transport returns the current underlying transport. Diagnostics and the
// experiment harness use it (e.g. to inject the thesis' artificial
// quality degradation); applications should not.
func (vc *VirtualConnection) Transport() plugin.Conn {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.cur
}

// Generation returns how many transports this connection has had (1 + the
// number of swaps); experiments use it to count handovers.
func (vc *VirtualConnection) Generation() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.gen + 1
}

// Swaps returns the number of successful transport substitutions.
func (vc *VirtualConnection) Swaps() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.swapped
}

// Restarts returns how many service reconnections (full application-level
// restarts, §5.2.2) this logical connection went through.
func (vc *VirtualConnection) Restarts() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.restarts
}

// SetSending flags whether the application still depends on the link. The
// thesis adds this "sending" boolean so the handover thread knows a broken
// connection need not be repaired while a server is crunching (§5.3,
// result routing). Handover threads skip low-quality reactions while it is
// false.
func (vc *VirtualConnection) SetSending(s bool) {
	vc.mu.Lock()
	vc.sending = s
	vc.mu.Unlock()
}

// Sending reports the result-routing flag.
func (vc *VirtualConnection) Sending() bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.sending
}

// OnSwap installs the application callback invoked after every transport
// substitution (the ChangeConnection notification of fig 5.5).
func (vc *VirtualConnection) OnSwap(f func(oldRemote, newRemote device.Addr)) {
	vc.mu.Lock()
	vc.onSwap = f
	vc.mu.Unlock()
}

// Closed reports whether the connection is closed.
func (vc *VirtualConnection) Closed() bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.closed
}

// Swap substitutes the transport, closing the old one. It is called by the
// engine when a PH_RECONNECT arrives (server side) and by the handover
// thread after building a replacement route (client side).
func (vc *VirtualConnection) Swap(newConn plugin.Conn) {
	vc.SwapRoute(newConn, device.Addr{})
}

// SwapRoute is Swap with the new route's first hop recorded.
func (vc *VirtualConnection) SwapRoute(newConn plugin.Conn, bridge device.Addr) {
	vc.mu.Lock()
	if vc.closed {
		vc.mu.Unlock()
		_ = newConn.Close()
		return
	}
	old := vc.cur
	oldRemote := old.RemoteAddr()
	vc.cur = newConn
	vc.bridge = bridge
	vc.gen++
	vc.swapped++
	vc.wakeSwapWaitsLocked()
	close(vc.genCh)
	vc.genCh = make(chan struct{})
	cb := vc.onSwap
	vc.mu.Unlock()

	_ = old.Close()
	if cb != nil {
		cb(oldRemote, newConn.RemoteAddr())
	}
}

// SwapRouteTo is SwapRoute with the logical target switched to another
// interface of the same device: a vertical handover re-attaches the
// connection through a sibling radio, so subsequent route lookups (and the
// handover thread's candidate queries) must key on the interface actually
// in use. The connection ID and swap accounting are unchanged — it is the
// same logical connection on a different bearer.
func (vc *VirtualConnection) SwapRouteTo(newConn plugin.Conn, target device.Addr, bridge device.Addr) {
	vc.mu.Lock()
	vc.target = target
	vc.mu.Unlock()
	vc.SwapRoute(newConn, bridge)
}

// MarkRestart records a service reconnection and swaps in the transport to
// the new provider. target is the new service owner.
func (vc *VirtualConnection) MarkRestart(newConn plugin.Conn, target device.Addr, bridge device.Addr) {
	vc.mu.Lock()
	vc.target = target
	vc.restarts++
	vc.mu.Unlock()
	vc.SwapRoute(newConn, bridge)
}

// Read reads from the current transport. On transport failure it waits up
// to the library's SwapWait for a handover to substitute a new transport,
// then retries; if none arrives the error is returned. io.EOF is returned
// as-is only when the connection is no longer expected to be repaired
// (closed, or the sending flag is off).
func (vc *VirtualConnection) Read(p []byte) (int, error) {
	if vc.cont != nil {
		return vc.contRead(p)
	}
	for {
		c, gen, genCh, err := vc.current()
		if err != nil {
			return 0, err
		}
		n, rerr := c.Read(p)
		if rerr == nil || n > 0 {
			return n, rerr
		}
		if !vc.shouldAwaitSwap() {
			return n, rerr
		}
		if !vc.awaitSwap(gen, genCh) {
			return n, rerr
		}
	}
}

// Write writes to the current transport, waiting for a handover swap on
// failure like Read. On a continuity connection (WithContinuity) a chunk
// counts as written once it is buffered in the send window — the window
// replays it across handovers, so the count is exactly what the peer will
// eventually receive. On a legacy connection a write that dies mid-frame
// reports the partial count with the error: retrying the whole buffer on
// the new transport (the old behaviour) re-sent a prefix the peer may
// already have read, so `sent - received` double-counted the tear as both
// loss and duplication. Only writes the dying transport accepted nothing
// of are retried after a swap.
func (vc *VirtualConnection) Write(p []byte) (int, error) {
	if vc.cont != nil {
		return vc.contWrite(p)
	}
	for {
		c, gen, genCh, err := vc.current()
		if err != nil {
			return 0, err
		}
		n, werr := c.Write(p)
		if werr == nil {
			return n, nil
		}
		if n > 0 {
			return n, werr
		}
		if !vc.shouldAwaitSwap() {
			return n, werr
		}
		if !vc.awaitSwap(gen, genCh) {
			return n, werr
		}
	}
}

// Close closes the connection and unregisters it from the engine's
// reconnect table.
func (vc *VirtualConnection) Close() error {
	vc.mu.Lock()
	if vc.closed {
		vc.mu.Unlock()
		return nil
	}
	vc.closed = true
	vc.wakeSwapWaitsLocked()
	close(vc.closeCh)
	c := vc.cur
	vc.mu.Unlock()

	if ct := vc.cont; ct != nil {
		// Wake continuity waiters blocked on the pull condition so they
		// observe the close.
		ct.mu.Lock()
		ct.broadcastLocked()
		ct.mu.Unlock()
	}
	vc.lib.unregister(vc)
	return c.Close()
}

func (vc *VirtualConnection) current() (plugin.Conn, int, chan struct{}, error) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if vc.closed {
		return nil, 0, nil, ErrClosed
	}
	return vc.cur, vc.gen, vc.genCh, nil
}

func (vc *VirtualConnection) shouldAwaitSwap() bool {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.sending && !vc.closed
}

// awaitSwap blocks until the generation advances past gen, the connection
// closes, or SwapWait elapses. It reports whether a retry is warranted.
// The wait is parked on a manual clock: the swap, the close, and the
// timeout each wake it.
func (vc *VirtualConnection) awaitSwap(gen int, genCh chan struct{}) bool {
	clk := vc.lib.Clock()
	w := clock.NewWait(clk)
	timeout := clock.AfterWait(clk, vc.lib.SwapWait(), w)
	vc.mu.Lock()
	if w != nil && vc.gen == gen && !vc.closed {
		vc.swapWaits = append(vc.swapWaits, w)
		w.Park()
	}
	vc.mu.Unlock()
	select {
	case <-genCh:
		return true
	case <-vc.closeCh:
		return false
	case <-timeout:
		return false
	}
}

// wakeSwapWaitsLocked wakes every awaitSwap caller; callers hold vc.mu and
// are about to release them by closing genCh or closeCh.
func (vc *VirtualConnection) wakeSwapWaitsLocked() {
	for _, w := range vc.swapWaits {
		w.Wake()
	}
	vc.swapWaits = nil
}

var _ io.ReadWriteCloser = (*VirtualConnection)(nil)
