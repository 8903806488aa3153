// Package faultplane is the deterministic fault-injection layer over the
// simulated wireless world: per-link impairment profiles (loss, jitter,
// Gilbert–Elliott burst outages, asymmetric degradation — see
// simnet.Impairment), world-level fault events (partitions, regional
// blackouts, daemon crash/restart churn), and a small declarative scenario
// runner (Script) that schedules those events on the world clock.
//
// The paper's premise is that mobile links fail in ugly, correlated ways;
// adaptive-middleware work (De Florio & Blondia) argues such systems must
// be validated against explicit environment-change models. The fault plane
// is that model: every stochastic choice draws from the world's seeded
// rng, and every event is applied at a scheduled simulated time, so a
// scenario replays bit-identically from its seed under a manual clock.
//
// A Plane composes the active partition and blackout windows into a single
// simnet link filter; crash/restart events act through NodeHandle, which
// peerhood.Node and phtest.Node implement. Scripts run either
// synchronously (Run.ApplyDue, for manual-clock harnesses that advance
// time themselves) or in the background (Run.Play, for scaled/real-clock
// experiments).
package faultplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/geo"
	"peerhood/internal/simnet"
)

// NodeHandle is the crash/restart surface of one PeerHood node: the fault
// plane kills and resurrects daemons through it without knowing how the
// embedding harness (peerhood.World, phtest) builds them. Restart must
// bring the daemon back with a fresh storage epoch, so peers detect the
// restart and fall back to a full neighbourhood resync.
type NodeHandle interface {
	// Name returns the node's device name (the Script's addressing key).
	Name() string
	// Crash stops the node's daemon and services abruptly.
	Crash() error
	// Restart rebuilds and starts the node's daemon with a fresh storage
	// epoch on the same radios.
	Restart() error
}

// Config parametrises a Plane.
type Config struct {
	// World is the simulated radio environment (required).
	World *simnet.World
	// Clock schedules script events and expires blackout windows; nil
	// uses the world's clock.
	Clock clock.Clock
	// Resolve maps a device name to its crash/restart handle; nil
	// disables Crash/Restart actions.
	Resolve func(name string) (NodeHandle, bool)
}

// Plane is the live fault state composed over one world. Installing a
// Plane hooks the world's link filter; all methods are safe for
// concurrent use.
type Plane struct {
	w       *simnet.World
	clk     clock.Clock
	resolve func(name string) (NodeHandle, bool)

	mu          sync.Mutex
	partitioned bool
	segments    map[string]int
	blackouts   []blackoutWindow
	impaired    []impairedPair
	trace       []string
}

type blackoutWindow struct {
	region geo.Rect
	until  time.Time
}

type impairedPair struct {
	from, to string
}

// New returns a Plane over cfg.World with its link filter installed.
func New(cfg Config) (*Plane, error) {
	if cfg.World == nil {
		return nil, errors.New("faultplane: Config.World is required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = cfg.World.Clock()
	}
	p := &Plane{w: cfg.World, clk: clk, resolve: cfg.Resolve}
	p.w.SetLinkFilter(p.allow)
	return p, nil
}

// World returns the plane's simulated world.
func (p *Plane) World() *simnet.World { return p.w }

// Detach uninstalls the plane's link filter, ending all partition and
// blackout effects (impairments registered on the world remain until
// healed or cleared).
func (p *Plane) Detach() { p.w.SetLinkFilter(nil) }

// allow is the composed link filter: a radio pair may link iff no active
// partition separates their devices and no active blackout covers either
// position. It is called by simnet on every inquiry candidate, dial, and
// link-alive check.
func (p *Plane) allow(a, b *simnet.Radio) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.partitioned && p.segments[a.Device().Name()] != p.segments[b.Device().Name()] {
		return false
	}
	if len(p.blackouts) == 0 {
		return true
	}
	now := p.clk.Now()
	keep := p.blackouts[:0]
	blocked := false
	for _, bo := range p.blackouts {
		if !bo.until.After(now) {
			continue // window over; drop lazily
		}
		keep = append(keep, bo)
		if bo.region.Contains(a.Device().Position()) || bo.region.Contains(b.Device().Position()) {
			blocked = true
		}
	}
	p.blackouts = keep
	return !blocked
}

// Partitioned reports whether a partition is currently in force.
func (p *Plane) Partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitioned
}

// ActiveBlackouts returns how many blackout windows are currently open.
func (p *Plane) ActiveBlackouts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	n := 0
	for _, bo := range p.blackouts {
		if bo.until.After(now) {
			n++
		}
	}
	return n
}

// Trace returns the ordered log of applied script events ("t=6s blackout
// ... broke=3"). Two same-seed runs of the same script produce identical
// traces when driven deterministically — the determinism regression tests
// assert exactly that.
func (p *Plane) Trace() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.trace...)
}

func (p *Plane) record(line string) {
	p.mu.Lock()
	p.trace = append(p.trace, line)
	p.mu.Unlock()
}

// Load binds a script to the plane, anchored at the current simulated
// time: an event with At=6s fires six simulated seconds from now. Events
// are applied in At order (stable for equal times).
func (p *Plane) Load(s Script) *Run {
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Run{p: p, start: p.clk.Now(), events: events}
}

// Run is one playback of a Script.
type Run struct {
	p     *Plane
	start time.Time

	mu     sync.Mutex
	events []Event
	idx    int
	errs   []error
}

// ApplyDue applies, in order, every not-yet-applied event whose time has
// come, and returns how many fired. Manual-clock harnesses call it after
// each clock advance; the whole scenario then runs on one goroutine and
// replays bit-identically.
func (r *Run) ApplyDue() int {
	now := r.p.clk.Now()
	n := 0
	for {
		r.mu.Lock()
		if r.idx >= len(r.events) || r.start.Add(r.events[r.idx].At).After(now) {
			r.mu.Unlock()
			return n
		}
		ev := r.events[r.idx]
		r.idx++
		r.mu.Unlock()
		r.apply(ev)
		n++
	}
}

// Play blocks, sleeping simulated time between events and applying each at
// its scheduled moment — the driver for scaled/real-clock experiments. It
// returns the first accumulated error, if any.
func (r *Run) Play() error {
	for {
		r.mu.Lock()
		if r.idx >= len(r.events) {
			r.mu.Unlock()
			return r.Err()
		}
		ev := r.events[r.idx]
		r.idx++
		r.mu.Unlock()
		if wait := ev.At - r.p.clk.Since(r.start); wait > 0 {
			r.p.clk.Sleep(wait)
		}
		r.apply(ev)
	}
}

// Go runs Play on its own goroutine and delivers its result.
func (r *Run) Go() <-chan error {
	ch := make(chan error, 1)
	clock.Go(r.p.clk, func() { ch <- r.Play() })
	return ch
}

// Done reports whether every event has been applied.
func (r *Run) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idx >= len(r.events)
}

// Err returns the accumulated event errors joined, or nil.
func (r *Run) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return errors.Join(r.errs...)
}

// apply executes one event, sweeps newly-disallowed links, and records
// the outcome in the plane trace. The sweep's broken-link count is NOT
// recorded: transient protocol connections are torn down by background
// responder goroutines, so whether the sweep or the teardown reaps a
// dying link is a scheduling race — the trace holds only the
// deterministic facts (what fired, when, and whether it errored).
func (r *Run) apply(ev Event) {
	err := ev.Do.apply(r.p)
	r.p.w.CheckLinks()
	line := fmt.Sprintf("t=%s %s", ev.At, ev.Do)
	if err != nil {
		line += " err=" + err.Error()
		r.mu.Lock()
		r.errs = append(r.errs, fmt.Errorf("faultplane: t=%s %s: %w", ev.At, ev.Do, err))
		r.mu.Unlock()
	}
	r.p.record(line)
}
