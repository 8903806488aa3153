package simnet

import (
	"io"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/rng"
)

// link is one established connection: two Conn endpoints joined by a pair of
// unidirectional byte pipes.
type link struct {
	id        int64
	w         *World
	a, b      *Conn
	bandwidth float64 // bytes per simulated second

	mu          sync.Mutex
	broken      bool
	breakErr    error
	biasRate    float64 // quality units lost per simulated second
	biasStart   time.Time
	biasAccrued float64 // degradation banked by earlier rates
}

func newLink(w *World, id int64, ra, rb *Radio, bandwidth float64) *link {
	lk := &link{id: id, w: w, bandwidth: bandwidth}
	lk.a = &Conn{link: lk, local: ra, remote: rb}
	lk.b = &Conn{link: lk, local: rb, remote: ra}
	lk.a.peer, lk.b.peer = lk.b, lk.a
	lk.a.rd.init(w.clk)
	lk.b.rd.init(w.clk)
	return lk
}

// breakWith tears the link down abruptly: pending and future reads and
// writes on both endpoints fail with err. Idempotent.
func (lk *link) breakWith(err error) {
	lk.mu.Lock()
	if lk.broken {
		lk.mu.Unlock()
		return
	}
	lk.broken = true
	lk.breakErr = err
	lk.mu.Unlock()

	lk.a.rd.fail(err)
	lk.b.rd.fail(err)
	lk.w.removeLink(lk.id)
}

func (lk *link) brokenErr() error {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.broken {
		return lk.breakErr
	}
	return nil
}

// bias returns the current artificial quality penalty (>= 0).
func (lk *link) bias() float64 {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	b := lk.biasAccrued
	if lk.biasRate != 0 {
		if elapsed := lk.w.clk.Since(lk.biasStart).Seconds(); elapsed > 0 {
			b += lk.biasRate * elapsed
		}
	}
	return b
}

// Conn is one endpoint of an established link. It implements
// io.ReadWriteCloser plus live link-quality sampling; writes are delayed to
// honour the technology's bandwidth.
type Conn struct {
	link   *link
	peer   *Conn
	local  *Radio
	remote *Radio
	rd     pipe

	// imp impairs writes from this endpoint (guarded by link.mu).
	imp *impairState

	closeOnce sync.Once
}

// LocalAddr returns the address of this endpoint's radio.
func (c *Conn) LocalAddr() device.Addr { return c.local.addr }

// RemoteAddr returns the address of the peer's radio.
func (c *Conn) RemoteAddr() device.Addr { return c.remote.addr }

// Read reads bytes sent by the peer. It blocks until data arrives, the peer
// closes (io.EOF after the buffer drains), or the link breaks (the break
// error immediately, discarding buffered data — the radio is gone).
func (c *Conn) Read(p []byte) (int, error) {
	return c.rd.read(p)
}

// Write sends bytes to the peer, sleeping to model the link's bandwidth
// and any impairment jitter. An impairment may silently drop the whole
// payload (loss is per Write call, so framed protocols lose whole frames,
// never fragments): the writer still sees success, as on a real radio.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.link.brokenErr(); err != nil {
		return 0, err
	}
	if c.rd.closedLocally() {
		return 0, ErrClosed
	}
	delay := time.Duration(0)
	if c.link.bandwidth > 0 && len(p) > 0 {
		delay = time.Duration(float64(len(p)) / c.link.bandwidth * float64(time.Second))
	}
	delay += c.link.writeJitter(c)
	if delay > 0 {
		c.link.w.clk.Sleep(delay)
	}
	// The sleep may have outlived the link.
	if err := c.link.brokenErr(); err != nil {
		return 0, err
	}
	if c.link.dropWrite(c) {
		w := c.link.w
		w.mu.Lock()
		w.stats.MessagesDropped++
		w.tFramesDropped.Inc()
		w.mu.Unlock()
		return len(p), nil
	}
	if err := c.peer.rd.write(p); err != nil {
		return 0, err
	}
	w := c.link.w
	w.mu.Lock()
	w.stats.BytesWritten += int64(len(p))
	w.stats.MessagesDelivered++
	w.tBytes.Add(uint64(len(p)))
	w.tFramesDelivered.Inc()
	w.mu.Unlock()
	return len(p), nil
}

// Close shuts this endpoint down: the peer's pending reads drain and then
// see io.EOF, this endpoint's reads and writes fail with ErrClosed. Closing
// the second endpoint removes the link. Close is idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.rd.closeLocal()
		c.peer.rd.closeWrite()
		if c.peer.rd.closedLocally() {
			// Both ends closed: retire the link unless already broken.
			c.link.mu.Lock()
			already := c.link.broken
			c.link.broken = true
			if c.link.breakErr == nil {
				c.link.breakErr = ErrClosed
			}
			c.link.mu.Unlock()
			if !already {
				c.link.w.removeLink(c.link.id)
			}
		}
	})
	return nil
}

// Quality returns the connection's current link quality on the 0–255 scale:
// the radio-to-radio quality minus any artificial degradation and
// impairment penalty, or 0 once the link is broken, out of range, or in an
// impairment burst outage. This is what the thesis' roaming and handover
// threads continuously monitor.
func (c *Conn) Quality() int {
	if c.link.brokenErr() != nil {
		return 0
	}
	penalty, outage := c.link.impairPenalty()
	if outage {
		return 0
	}
	base := c.local.QualityTo(c.remote.addr)
	q := float64(base) - c.link.bias() - float64(penalty)
	return int(rng.Clamp(q, 0, QualityMax))
}

// StartDegradation makes the connection's measured quality decay by rate
// units per simulated second from now on, reproducing the thesis'
// simulation device: "we simulate the first connection deterioration
// subtracting the monitored link quality value artificially by 1 every
// second" (§5.2.1). A second call replaces the rate: degradation accrued
// so far is kept (quality never snaps back up) and decay continues at the
// new rate — the two rates never stack. A rate of 0 cancels degradation
// entirely, discarding the accrued penalty. Calling on a broken link is a
// no-op.
func (c *Conn) StartDegradation(rate float64) {
	lk := c.link
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.broken {
		return
	}
	now := lk.w.clk.Now()
	if rate == 0 {
		lk.biasRate, lk.biasAccrued = 0, 0
		return
	}
	if lk.biasRate != 0 {
		if elapsed := now.Sub(lk.biasStart).Seconds(); elapsed > 0 {
			lk.biasAccrued += lk.biasRate * elapsed
		}
	}
	lk.biasRate, lk.biasStart = rate, now
}

// Break forcibly severs the link (fault injection for tests/experiments).
func (c *Conn) Break() { c.link.breakWith(ErrLinkLost) }

// pipe is a unidirectional in-memory byte stream with blocking reads.
type pipe struct {
	mu          sync.Mutex
	cond        *sync.Cond
	parked      clock.WaitList
	buf         []byte
	writeClosed bool  // peer closed: EOF after drain
	localClosed bool  // this endpoint closed: reads fail ErrClosed
	err         error // link broke: reads fail immediately
}

func (p *pipe) init(clk clock.Clock) {
	p.cond = sync.NewCond(&p.mu)
	p.parked = clock.NewWaitList(clk)
}

// signal wakes every blocked reader. Callers hold p.mu.
func (p *pipe) signal() {
	p.parked.WakeAll()
	p.cond.Broadcast()
}

func (p *pipe) write(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.localClosed || p.writeClosed {
		return ErrClosed
	}
	p.buf = append(p.buf, b...)
	p.signal()
	return nil
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return 0, p.err
		}
		if p.localClosed {
			return 0, ErrClosed
		}
		if len(p.buf) > 0 {
			n := copy(b, p.buf)
			p.buf = p.buf[n:]
			if len(p.buf) == 0 {
				p.buf = nil
			}
			return n, nil
		}
		if p.writeClosed {
			return 0, io.EOF
		}
		p.parked.Park()
		p.cond.Wait()
	}
}

// fail makes all pending and future reads fail with err, discarding any
// buffered bytes (the link is gone; delivery guarantees are void).
func (p *pipe) fail(err error) {
	p.mu.Lock()
	p.err = err
	p.buf = nil
	p.signal()
	p.mu.Unlock()
}

// closeWrite marks the writer side closed: readers drain then see EOF.
func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.writeClosed = true
	p.signal()
	p.mu.Unlock()
}

// closeLocal marks the reading endpoint itself closed.
func (p *pipe) closeLocal() {
	p.mu.Lock()
	p.localClosed = true
	p.buf = nil
	p.signal()
	p.mu.Unlock()
}

func (p *pipe) closedLocally() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.localClosed
}
