package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRealNow(t *testing.T) {
	c := Real()
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real().Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestRealSince(t *testing.T) {
	c := Real()
	start := c.Now()
	c.Sleep(time.Millisecond)
	if d := c.Since(start); d < time.Millisecond {
		t.Fatalf("Since = %v, want >= 1ms", d)
	}
}

func TestScaledSleepCompresses(t *testing.T) {
	c := Scaled(1000)
	wallStart := time.Now()
	c.Sleep(1 * time.Second) // should take ~1ms wall
	if wall := time.Since(wallStart); wall > 500*time.Millisecond {
		t.Fatalf("scaled sleep of 1s took %v wall, want ~1ms", wall)
	}
}

func TestScaledNowAdvances(t *testing.T) {
	c := Scaled(1000)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Since(start)
	if elapsed < 2*time.Second {
		t.Fatalf("scaled clock advanced %v in 5ms wall, want >= 2s simulated", elapsed)
	}
}

func TestScaledAfter(t *testing.T) {
	c := Scaled(1000)
	select {
	case <-c.After(1 * time.Second):
	case <-time.After(2 * time.Second): // wall-time guard
		t.Fatal("scaled After(1s) did not fire within 2s wall")
	}
}

func TestScaledFactorClamped(t *testing.T) {
	c := Scaled(0) // clamps to 1, i.e. real time
	start := time.Now()
	c.Sleep(2 * time.Millisecond)
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("factor-1 scaled clock slept less than requested")
	}
}

func TestScaledTicker(t *testing.T) {
	c := Scaled(1000)
	tk := c.NewTicker(100 * time.Millisecond) // 0.1ms wall per tick
	defer tk.Stop()
	for i := 0; i < 3; i++ {
		select {
		case <-tk.C():
		case <-time.After(time.Second):
			t.Fatalf("tick %d did not arrive", i)
		}
	}
}

func TestScaledTickerStopIdempotent(t *testing.T) {
	c := Scaled(1000)
	tk := c.NewTicker(time.Second)
	tk.Stop()
	tk.Stop() // must not panic
}

func TestScaledTickerPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	Scaled(10).NewTicker(0)
}

func TestManualNowFixedUntilAdvance(t *testing.T) {
	m := NewManual()
	t0 := m.Now()
	if got := m.Now(); !got.Equal(t0) {
		t.Fatalf("manual time moved without Advance: %v vs %v", got, t0)
	}
	m.Advance(5 * time.Second)
	if got := m.Since(t0); got != 5*time.Second {
		t.Fatalf("Since after Advance = %v, want 5s", got)
	}
}

func TestManualAfterFiresOnAdvance(t *testing.T) {
	m := NewManual()
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	m.Advance(1 * time.Second)
	select {
	case at := <-ch:
		want := time.Unix(0, 0).Add(10 * time.Second)
		if !at.Equal(want) {
			t.Fatalf("After delivered %v, want %v", at, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestManualAfterNonPositiveFiresImmediately(t *testing.T) {
	m := NewManual()
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestManualAdvanceFiresInDeadlineOrder(t *testing.T) {
	m := NewManual()
	var order []int
	ch2 := m.After(2 * time.Second)
	ch1 := m.After(1 * time.Second)
	ch3 := m.After(3 * time.Second)
	fired := m.Advance(5 * time.Second)
	if fired != 3 {
		t.Fatalf("Advance fired %d waiters, want 3", fired)
	}
	t1 := <-ch1
	t2 := <-ch2
	t3 := <-ch3
	if !t1.Before(t2) || !t2.Before(t3) {
		t.Fatalf("fire times out of order: %v %v %v", t1, t2, t3)
	}
	_ = order
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for i := 0; i < 100 && m.PendingWaiters() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if m.PendingWaiters() != 1 {
		t.Fatal("sleeper never registered")
	}
	m.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestManualTicker(t *testing.T) {
	m := NewManual()
	tk := m.NewTicker(10 * time.Second)
	defer tk.Stop()
	m.Advance(10 * time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker did not fire on first period")
	}
	m.Advance(10 * time.Second)
	select {
	case <-tk.C():
	default:
		t.Fatal("ticker did not re-arm")
	}
}

func TestManualTickerDropsWhenSlow(t *testing.T) {
	m := NewManual()
	tk := m.NewTicker(time.Second)
	defer tk.Stop()
	// Three periods pass without anyone reading: only one tick is buffered.
	m.Advance(3 * time.Second)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("buffered ticks = %d, want 1 (slow receivers drop ticks)", n)
	}
}

func TestManualTickerStop(t *testing.T) {
	m := NewManual()
	tk := m.NewTicker(time.Second)
	tk.Stop()
	m.Advance(10 * time.Second)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker delivered a tick")
	default:
	}
	if n := m.PendingWaiters(); n != 0 {
		t.Fatalf("PendingWaiters = %d after Stop, want 0", n)
	}
}

func TestManualAdvanceZero(t *testing.T) {
	m := NewManual()
	m.After(time.Second)
	if fired := m.Advance(0); fired != 0 {
		t.Fatalf("Advance(0) fired %d, want 0", fired)
	}
}

func TestManualEqualDeadlinesFireInRegistrationOrder(t *testing.T) {
	m := NewManual()
	first := m.After(time.Second)
	second := m.After(time.Second)
	m.Advance(time.Second)
	// Both fired; both channels hold the same timestamp. Mostly this checks
	// no deadlock/panic with equal deadlines.
	<-first
	<-second
}

func TestManualSettleWaitsForWokenSleeper(t *testing.T) {
	m := NewManual()
	var stage atomic.Int32
	Go(m, func() {
		m.Sleep(time.Second)
		stage.Store(1)
		m.Sleep(time.Second)
		stage.Store(2)
	})
	for want := int32(0); want <= 2; want++ {
		if want > 0 {
			m.Advance(time.Second)
		}
		m.Settle()
		if got := stage.Load(); got != want {
			t.Fatalf("after %d advances and Settle: stage %d, want %d", want, got, want)
		}
	}
	m.Settle() // the goroutine has returned: nothing is busy
}

func TestWaitParksAndWakesExactlyOnce(t *testing.T) {
	m := NewManual()
	busy := func() int {
		m.qmu.Lock()
		defer m.qmu.Unlock()
		return m.busy
	}
	w := NewWait(m)
	w.Park()
	w.Park()
	if got := busy(); got != -1 {
		t.Fatalf("busy after Park = %d, want -1", got)
	}
	w.Wake()
	w.Wake()
	if got := busy(); got != 0 {
		t.Fatalf("busy after Wake = %d, want 0", got)
	}

	// A wait that ended before its goroutine parked never parks it.
	early := NewWait(m)
	early.Wake()
	early.Park()
	if got := busy(); got != 0 {
		t.Fatalf("busy after Wake-then-Park = %d, want 0", got)
	}

	// A timer wakes its wait as it fires.
	timed := NewWait(m)
	ch := AfterWait(m, time.Second, timed)
	timed.Park()
	m.Advance(time.Second)
	<-ch
	if got := busy(); got != 0 {
		t.Fatalf("busy after the timer fired = %d, want 0", got)
	}

	// Other clocks have no waits; the nil Wait is inert.
	none := NewWait(Real())
	if none != nil {
		t.Fatal("NewWait(Real()) is not nil")
	}
	none.Park()
	none.Wake()
}
