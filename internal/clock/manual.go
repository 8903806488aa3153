package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Manual is a Clock whose time only moves when Advance is called. It is the
// deterministic clock used by unit tests: code under test registers waiters
// via Sleep/After/NewTicker and the test advances time explicitly.
//
// A Manual clock also keeps the accounting behind Settle, the
// run-to-quiescence barrier of a stepped simulation: goroutines started
// with Go count as busy until they return or park in a Wait (see
// NewWait), and Settle blocks until none is busy. Between a Settle and the
// next step the driver is the only goroutine that runs, so a stepped run
// replays identically whatever the scheduler does.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64 // tiebreaker so equal deadlines fire in registration order

	// qmu guards the quiescence state. Lock order: mu before qmu.
	qmu  sync.Mutex
	idle *sync.Cond // on qmu; broadcast when busy drops to zero or below
	busy int        // Go goroutines running, minus parked Waits
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at the Unix epoch.
func NewManual() *Manual {
	return NewManualAt(time.Unix(0, 0))
}

// NewManualAt returns a Manual clock starting at t.
func NewManualAt(t time.Time) *Manual {
	m := &Manual{now: t}
	m.idle = sync.NewCond(&m.qmu)
	return m
}

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since returns the manual time elapsed since t.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep blocks until Advance has moved the clock at least d forward. The
// sleeper is parked for Settle: a goroutine asleep on the clock waits for
// the driver, not the other way round.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := &Wait{m: m}
	ch := w.after(d)
	w.Park()
	<-ch
}

// After returns a channel delivering the manual time once d has elapsed.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.push(&waiter{at: m.now.Add(d), ch: ch})
	return ch
}

// NewTicker returns a ticker driven by Advance.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive Ticker duration")
	}
	mt := &manualTicker{m: m, period: d, ch: make(chan time.Time, 1)}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{at: m.now.Add(d), tick: mt}
	mt.w = w
	m.push(w)
	return mt
}

// Advance moves the clock forward by d, firing every timer and ticker whose
// deadline is reached, in deadline order. It returns the number of waiters
// fired.
func (m *Manual) Advance(d time.Duration) int {
	m.mu.Lock()
	target := m.now.Add(d)
	fired := 0
	for len(m.waiters) > 0 && !m.waiters[0].at.After(target) {
		w := heap.Pop(&m.waiters).(*waiter)
		if w.cancelled {
			continue
		}
		m.now = w.at
		fired++
		if w.tick != nil {
			// Re-arm the ticker before delivering, like time.Ticker.
			nw := &waiter{at: w.at.Add(w.tick.period), tick: w.tick}
			w.tick.w = nw
			m.push(nw)
			select {
			case w.tick.ch <- m.now:
			default:
			}
			continue
		}
		w.wake.Wake()
		w.ch <- m.now
	}
	m.now = target
	m.mu.Unlock()
	return fired
}

// PendingWaiters reports how many timers/tickers are currently registered.
func (m *Manual) PendingWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.waiters {
		if !w.cancelled {
			n++
		}
	}
	return n
}

func (m *Manual) push(w *waiter) {
	w.seq = m.seq
	m.seq++
	heap.Push(&m.waiters, w)
}

type waiter struct {
	at        time.Time
	seq       int64
	ch        chan time.Time
	wake      *Wait // woken as the timer fires; nil for plain After
	tick      *manualTicker
	cancelled bool
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

type manualTicker struct {
	m      *Manual
	period time.Duration
	ch     chan time.Time
	w      *waiter
}

func (mt *manualTicker) C() <-chan time.Time { return mt.ch }

func (mt *manualTicker) Stop() {
	mt.m.mu.Lock()
	defer mt.m.mu.Unlock()
	if mt.w != nil {
		mt.w.cancelled = true
		mt.w = nil
	}
}

// Settle blocks until every goroutine started by Go on m has returned or is
// parked in a Wait. It decides from the Go/Park/Wake accounting alone —
// never from wall-clock time. A goroutine blocked on anything that is not
// a Wait (a plain channel, a mutex held forever) counts as busy, so
// Settle waits for it; a goroutine not started by Go that parks in a Wait
// is counted out, so Settle is exact only when the caller is the one
// goroutine outside Go that touches the simulation.
func (m *Manual) Settle() {
	m.qmu.Lock()
	for m.busy > 0 {
		m.idle.Wait()
	}
	m.qmu.Unlock()
}

// addBusy adds n to the busy count.
func (m *Manual) addBusy(n int) {
	m.qmu.Lock()
	m.addBusyLocked(n)
	m.qmu.Unlock()
}

func (m *Manual) addBusyLocked(n int) {
	m.busy += n
	if m.busy <= 0 {
		m.idle.Broadcast()
	}
}

// Wait is one goroutine's blocking wait as Settle sees it. The goroutine
// registers the Wait with every source that can end its wait, calls Park,
// and blocks; the first source to fire calls Wake before it releases the
// goroutine. Park counts the goroutine out of the busy set and Wake counts
// it back in, exactly once each: a Wake that comes before the Park ends the
// wait without ever parking it, and later Wakes are no-ops. A nil *Wait —
// what NewWait returns for clocks other than Manual — does nothing.
type Wait struct {
	m *Manual
	// parked and woken are guarded by m.qmu.
	parked, woken bool
}

// NewWait returns an unparked Wait on c if it is a Manual clock, else nil.
func NewWait(c Clock) *Wait {
	if m, ok := c.(*Manual); ok {
		return &Wait{m: m}
	}
	return nil
}

// Park counts the calling goroutine out of the busy set until Wake. Call
// it after registering the Wait with every wake source and before
// blocking.
func (w *Wait) Park() {
	if w == nil {
		return
	}
	m := w.m
	m.qmu.Lock()
	if !w.woken && !w.parked {
		w.parked = true
		m.addBusyLocked(-1)
	}
	m.qmu.Unlock()
}

// Wake ends the wait, counting a parked goroutine back into the busy set.
// Wake sources call it before they release the goroutine, so the busy
// count never misses a goroutine that is runnable.
func (w *Wait) Wake() {
	if w == nil {
		return
	}
	m := w.m
	m.qmu.Lock()
	if !w.woken {
		w.woken = true
		if w.parked {
			m.addBusyLocked(1)
		}
	}
	m.qmu.Unlock()
}

// after is After with w woken as the timer fires.
func (w *Wait) after(d time.Duration) <-chan time.Time {
	m := w.m
	ch := make(chan time.Time, 1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if d <= 0 {
		w.Wake()
		ch <- m.now
		return ch
	}
	m.push(&waiter{at: m.now.Add(d), ch: ch, wake: w})
	return ch
}

// Go runs f on a new goroutine. On a Manual clock, Settle waits for it:
// it counts as busy from this call until f returns, except while parked
// in a Wait.
func Go(c Clock, f func()) {
	m, ok := c.(*Manual)
	if !ok {
		go f()
		return
	}
	m.addBusy(1)
	go func() {
		defer m.addBusy(-1)
		f()
	}()
}

// AfterWait is c.After(d) with w woken as the timer fires; w is the
// NewWait(c) of the goroutine that will block on the channel.
func AfterWait(c Clock, d time.Duration, w *Wait) <-chan time.Time {
	if w == nil {
		return c.After(d)
	}
	return w.after(d)
}

// WaitList parks the goroutines blocked on one sync.Cond: a goroutine
// about to cond.Wait calls Park, and whoever broadcasts calls WakeAll
// first, both under the condition's lock. On a clock other than Manual
// (and as a zero value) it does nothing.
type WaitList struct {
	m      *Manual
	parked int // goroutines parked since the last WakeAll
}

// NewWaitList returns a WaitList accounted on c.
func NewWaitList(c Clock) WaitList {
	m, _ := c.(*Manual)
	return WaitList{m: m}
}

// Park parks the calling goroutine until the next WakeAll.
func (l *WaitList) Park() {
	if l.m == nil {
		return
	}
	l.parked++
	l.m.addBusy(-1)
}

// WakeAll wakes every goroutine parked since the last WakeAll.
func (l *WaitList) WakeAll() {
	if l.parked > 0 {
		l.m.addBusy(l.parked)
		l.parked = 0
	}
}
