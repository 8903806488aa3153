// Package simnet simulates the wireless world PeerHood runs in: devices
// with positions and mobility models, radios with per-technology coverage
// and link quality, Bluetooth-style inquiry (including its discovery
// asymmetry), lossy slow connection establishment, and bandwidth-limited
// duplex links that break when devices move out of range.
//
// It substitutes for the thesis' physical testbed (laptops and phones with
// Bluetooth radios); every stochastic parameter is calibrated to the numbers
// the thesis reports — see TechParams.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/geo"
	"peerhood/internal/mobility"
	"peerhood/internal/rng"
	"peerhood/internal/telemetry"
)

// Errors returned by dialing and link operations.
var (
	// ErrNoSuchRadio reports a dial to an address that does not exist.
	ErrNoSuchRadio = errors.New("simnet: no such radio")
	// ErrOutOfRange reports that the target radio is beyond coverage.
	ErrOutOfRange = errors.New("simnet: target out of coverage")
	// ErrConnectFault reports a stochastic connection-establishment failure
	// (the thesis' "normal Bluetooth connection fault", §4.3).
	ErrConnectFault = errors.New("simnet: connection fault")
	// ErrRefused reports that nothing is listening on the target port.
	ErrRefused = errors.New("simnet: connection refused")
	// ErrRadioDown reports that an endpoint's radio is powered off.
	ErrRadioDown = errors.New("simnet: radio down")
	// ErrLinkLost reports that an established link broke, typically because
	// a device moved out of coverage.
	ErrLinkLost = errors.New("simnet: link lost")
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("simnet: closed")
	// ErrTechMismatch reports a dial whose source and target radios use
	// different technologies.
	ErrTechMismatch = errors.New("simnet: technology mismatch")
)

// acceptBacklog bounds pending, not-yet-accepted connections per listener,
// like a TCP accept backlog. Dials beyond it are refused.
const acceptBacklog = 16

// Stats counts world-level events; experiments read them to report traffic
// and fault figures.
type Stats struct {
	Inquiries         int64
	InquiryResponses  int64
	DialsAttempted    int64
	DialsSucceeded    int64
	DialsFaulted      int64
	DialsOutOfRange   int64
	DialsRefused      int64
	LinksBroken       int64
	BytesWritten      int64
	MessagesDelivered int64
	// MessagesDropped counts writes silently lost to link impairments
	// (fault injection; see Impairment).
	MessagesDropped int64
	// GridRefreshes counts full re-indexing passes of the spatial grid;
	// InquiryCandidates sums the radios examined per inquiry (for a full
	// scan this grows by the world's radio count each inquiry, for the
	// grid only by the 3x3-cell occupancy).
	GridRefreshes     int64
	InquiryCandidates int64
}

// Option configures a World.
type Option func(*World)

// WithParams overrides the parameters for one technology.
func WithParams(t device.Tech, p TechParams) Option {
	return func(w *World) { w.params[t] = p }
}

// WithQualityNoise sets the standard deviation of the Gaussian noise added
// to link-quality readings (default 3).
func WithQualityNoise(stddev float64) Option {
	return func(w *World) { w.qualityNoise = stddev }
}

// WithLinearScan disables the spatial grid index: inquiries fall back to
// scanning every radio in the world, as the original implementation did.
// It exists as the reference behaviour for equivalence tests and for A/B
// benchmarking the grid.
func WithLinearScan() Option {
	return func(w *World) { w.linearScan = true }
}

// World is the simulated radio environment. All methods are safe for
// concurrent use.
type World struct {
	clk   clock.Clock
	src   *rng.Source
	epoch time.Time

	mu           sync.Mutex
	devices      map[string]*Device
	radios       map[device.Addr]*Radio
	radioOrder   []*Radio // insertion order, for deterministic iteration
	techRadios   map[device.Tech][]*Radio
	grids        map[device.Tech]*radioGrid
	maxSpeed     float64 // upper bound on any device's speed, m/s
	speedDirty   bool    // maxSpeed may be stale-high; recompute lazily
	linearScan   bool
	listeners    map[listenKey]*Listener
	links        map[int64]*link
	nextLinkID   int64
	macSeq       int
	params       map[device.Tech]TechParams
	qualityNoise float64
	stats        Stats
	// linkFilter, when set, vetoes radio pairs: a pair it rejects cannot
	// discover each other, dial, or keep an established link (fault
	// injection: partitions, regional blackouts).
	linkFilter func(a, b *Radio) bool
	// impairments maps a directional radio pair to the impairment applied
	// to links dialed between them (see SetLinkImpairment).
	impairments map[impairKey]Impairment

	// Telemetry handles, resolved by Instrument; nil-safe, so an
	// uninstrumented world pays one branch per event. They mirror the
	// Stats fields that matter to live scrapes: frame fates, wire bytes,
	// dial outcomes, and link breaks.
	tFramesDelivered *telemetry.Counter
	tFramesDropped   *telemetry.Counter
	tBytes           *telemetry.Counter
	tDialsOK         *telemetry.Counter
	tDialsFaulted    *telemetry.Counter
	tDialsRefused    *telemetry.Counter
	tDialsRange      *telemetry.Counter
	tLinksBroken     *telemetry.Counter

	checkStop chan struct{}
	checkDone chan struct{}
}

// Instrument resolves the world's telemetry handles against reg, so frame
// deliveries, impairment drops, dial outcomes, and link breaks surface as
// live counters next to the per-daemon ones. Call before traffic flows;
// a nil registry leaves the world uninstrumented.
func (w *World) Instrument(reg *telemetry.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tFramesDelivered = reg.Counter(`peerhood_simnet_frames_total{result="delivered"}`)
	w.tFramesDropped = reg.Counter(`peerhood_simnet_frames_total{result="dropped"}`)
	w.tBytes = reg.Counter(`peerhood_simnet_bytes_total`)
	w.tDialsOK = reg.Counter(`peerhood_simnet_dials_total{result="ok"}`)
	w.tDialsFaulted = reg.Counter(`peerhood_simnet_dials_total{result="faulted"}`)
	w.tDialsRefused = reg.Counter(`peerhood_simnet_dials_total{result="refused"}`)
	w.tDialsRange = reg.Counter(`peerhood_simnet_dials_total{result="out-of-range"}`)
	w.tLinksBroken = reg.Counter(`peerhood_simnet_links_broken_total`)
}

type listenKey struct {
	addr device.Addr
	port uint16
}

// NewWorld creates an empty world on clk with deterministic randomness
// derived from seed.
func NewWorld(clk clock.Clock, seed int64, opts ...Option) *World {
	w := &World{
		clk:          clk,
		src:          rng.New(seed),
		epoch:        clk.Now(),
		devices:      make(map[string]*Device),
		radios:       make(map[device.Addr]*Radio),
		techRadios:   make(map[device.Tech][]*Radio),
		grids:        make(map[device.Tech]*radioGrid),
		listeners:    make(map[listenKey]*Listener),
		links:        make(map[int64]*link),
		params:       make(map[device.Tech]TechParams),
		impairments:  make(map[impairKey]Impairment),
		qualityNoise: 3,
	}
	for _, t := range device.Techs() {
		w.params[t] = DefaultParams(t)
	}
	for _, o := range opts {
		o(w)
	}
	return w
}

// Clock returns the world's clock.
func (w *World) Clock() clock.Clock { return w.clk }

// Params returns the parameters in force for t.
func (w *World) Params(t device.Tech) TechParams {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.params[t]
}

// SetParams replaces the parameters for t at runtime (experiments sweep
// connection-latency profiles this way). Existing links keep their
// bandwidth; new dials and inquiries use the new values.
func (w *World) SetParams(t device.Tech, p TechParams) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.params[t].CoverageRadius != p.CoverageRadius {
		// Cell size derives from the radius; drop the grid and let the
		// next query rebuild it at the new granularity.
		delete(w.grids, t)
	}
	w.params[t] = p
}

// SetLinkFilter installs (or, with nil, clears) a radio-pair veto: a pair
// the filter rejects cannot discover each other, dial, or keep an
// established link — existing links between vetoed pairs are broken
// immediately. The fault plane composes partitions and regional blackouts
// into this single hook; the filter must be symmetric in its arguments and
// must not call back into the World.
func (w *World) SetLinkFilter(f func(a, b *Radio) bool) {
	w.mu.Lock()
	w.linkFilter = f
	w.mu.Unlock()
	if f != nil {
		w.CheckLinks()
	}
}

// allowedLocked reports whether the link filter permits the pair. Callers
// hold w.mu.
func (w *World) allowedLocked(a, b *Radio) bool {
	return w.linkFilter == nil || w.linkFilter(a, b)
}

// allowed is allowedLocked for callers not holding w.mu.
func (w *World) allowed(a, b *Radio) bool {
	w.mu.Lock()
	f := w.linkFilter
	w.mu.Unlock()
	return f == nil || f(a, b)
}

// Stats returns a snapshot of the world counters.
func (w *World) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// ResetStats zeroes the world counters (used between experiment phases).
func (w *World) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats = Stats{}
}

// AddDevice adds a named device following the given mobility model.
func (w *World) AddDevice(name string, model mobility.Model) (*Device, error) {
	if model == nil {
		model = mobility.Static{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.devices[name]; dup {
		return nil, fmt.Errorf("simnet: duplicate device %q", name)
	}
	d := &Device{
		w:         w,
		name:      name,
		model:     model,
		modelBase: w.clk.Now(),
		speed:     mobility.MaxSpeedOf(model),
		radios:    make(map[device.Tech]*Radio),
	}
	w.devices[name] = d
	w.maxSpeed = math.Max(w.maxSpeed, d.speed)
	return d, nil
}

// Device returns the named device.
func (w *World) Device(name string) (*Device, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	d, ok := w.devices[name]
	return d, ok
}

// FindRadio resolves an address to its radio.
func (w *World) FindRadio(a device.Addr) (*Radio, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.radios[a]
	return r, ok
}

// Device is one simulated terminal. It may carry several radios (one per
// technology), mirroring PeerHood's multi-plugin design.
type Device struct {
	w    *World
	name string

	mu        sync.Mutex
	model     mobility.Model
	modelBase time.Time
	speed     float64 // model's speed bound, m/s (+Inf if unknown)
	down      bool
	radios    map[device.Tech]*Radio
}

// speedBound returns the current model's speed bound.
func (d *Device) speedBound() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.speed
}

// Name returns the device's name.
func (d *Device) Name() string { return d.name }

// AddRadio attaches a radio of technology t, assigning it a fresh MAC.
func (d *Device) AddRadio(t device.Tech) (*Radio, error) {
	if !t.Valid() {
		return nil, fmt.Errorf("simnet: invalid technology %v", t)
	}
	d.w.mu.Lock()
	d.w.macSeq++
	mac := fmt.Sprintf("02:70:68:%02x:%02x:%02x",
		(d.w.macSeq>>16)&0xff, (d.w.macSeq>>8)&0xff, d.w.macSeq&0xff)
	d.w.mu.Unlock()

	d.mu.Lock()
	if _, dup := d.radios[t]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("simnet: device %q already has a %v radio", d.name, t)
	}
	r := &Radio{w: d.w, dev: d, addr: device.Addr{Tech: t, MAC: mac}}
	d.radios[t] = r
	d.mu.Unlock()

	d.w.mu.Lock()
	r.order = len(d.w.radioOrder)
	d.w.radios[r.addr] = r
	d.w.radioOrder = append(d.w.radioOrder, r)
	d.w.techRadios[t] = append(d.w.techRadios[t], r)
	if g := d.w.grids[t]; g != nil {
		// Position is sampled under w.mu so no grid refresh can slip in
		// between sampling and insertion and undercount this radio's
		// drift.
		g.insert(r, d.Position())
	}
	d.w.mu.Unlock()
	return r, nil
}

// Radio returns the device's radio for t, if any.
func (d *Device) Radio(t device.Tech) (*Radio, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.radios[t]
	return r, ok
}

// Position returns the device's current position.
func (d *Device) Position() geo.Point {
	d.mu.Lock()
	model, base := d.model, d.modelBase
	d.mu.Unlock()
	return model.PositionAt(d.w.clk.Since(base))
}

// SetModel replaces the device's mobility model; the new model's elapsed
// time starts now. Used to script scenarios ("at t=30s, start walking").
func (d *Device) SetModel(model mobility.Model) {
	if model == nil {
		model = mobility.Static{At: d.Position()}
	}
	speed := mobility.MaxSpeedOf(model)
	w := d.w

	// The new model may place the device arbitrarily far from the old
	// one. Model swap and grid re-bucketing happen under one w.mu
	// critical section so no concurrent query can see the new positions
	// through the old buckets.
	w.mu.Lock()
	defer w.mu.Unlock()
	d.mu.Lock()
	d.model = model
	d.modelBase = w.clk.Now()
	d.speed = speed
	radios := make([]*Radio, 0, len(d.radios))
	for _, r := range d.radios {
		radios = append(radios, r)
	}
	d.mu.Unlock()

	if speed >= w.maxSpeed {
		w.maxSpeed = speed
	} else {
		// The device may have been the fastest. Recomputing the supremum
		// here would make scripted mass re-models O(N^2); leave the
		// stale-high (conservative, so still exact) bound and let the
		// next grid query recompute once.
		w.speedDirty = true
	}
	pos := d.Position()
	for _, r := range radios {
		if g := w.grids[r.addr.Tech]; g != nil {
			g.remove(r)
			g.insert(r, pos)
		}
	}
}

// SetDown powers the device's radios off (true) or on (false). Links of a
// downed device break on the next CheckLinks.
func (d *Device) SetDown(down bool) {
	d.mu.Lock()
	d.down = down
	d.mu.Unlock()
}

// IsDown reports whether the device is powered off.
func (d *Device) IsDown() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// Radio is one network interface of a device.
type Radio struct {
	w    *World
	dev  *Device
	addr device.Addr

	// order is the radio's world-wide insertion index; grid queries sort
	// candidates by it so they visit radios in the same relative order the
	// full scan does. Immutable after AddRadio.
	order int

	// inquiringUntil is guarded by w.mu.
	inquiringUntil time.Time
}

// Addr returns the radio's address.
func (r *Radio) Addr() device.Addr { return r.addr }

// Device returns the radio's owner.
func (r *Radio) Device() *Device { return r.dev }

// Tech returns the radio's technology.
func (r *Radio) Tech() device.Tech { return r.addr.Tech }

// InquiryResult is one response to a device-discovery inquiry.
type InquiryResult struct {
	Addr    device.Addr
	Quality int
}

// Inquire performs one device-discovery inquiry: it occupies the radio for
// the technology's InquiryDuration (during which, for asymmetric
// technologies, this radio is not discoverable by others — §3.4.2), then
// returns the discoverable in-range radios that responded.
func (r *Radio) Inquire() []InquiryResult {
	p := r.w.Params(r.addr.Tech)

	r.w.mu.Lock()
	start := r.w.clk.Now()
	r.inquiringUntil = start.Add(p.InquiryDuration)
	r.w.stats.Inquiries++
	r.w.mu.Unlock()

	if p.InquiryDuration > 0 {
		r.w.clk.Sleep(p.InquiryDuration)
	}

	if r.dev.IsDown() {
		return nil
	}
	selfPos := r.dev.Position()

	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	// Re-read the params under w.mu: a concurrent SetParams during the
	// inquiry sleep may have changed the coverage radius (and rebuilt the
	// grid to match), and the distance filter below must use the same
	// radius the grid's cell geometry covers.
	p = r.w.params[r.addr.Tech]
	// The grid narrows the scan to the 3x3 cell neighbourhood around the
	// inquirer; under WithLinearScan every radio in the world is a
	// candidate, as in the original implementation (the candidates
	// counter still only counts same-technology radios, so grid-vs-scan
	// comparisons stay apples to apples).
	var candidates []*Radio
	if r.w.linearScan {
		candidates = r.w.radioOrder
		r.w.stats.InquiryCandidates += int64(len(r.w.techRadios[r.addr.Tech]))
	} else {
		candidates = r.w.gridLocked(r.addr.Tech).candidates(selfPos, r.w.techRadios[r.addr.Tech])
		r.w.stats.InquiryCandidates += int64(len(candidates))
	}
	var out []InquiryResult
	for _, other := range candidates {
		if other == r || other.addr.Tech != r.addr.Tech || other.dev == r.dev {
			continue
		}
		if other.dev.IsDown() {
			continue
		}
		if !r.w.allowedLocked(r, other) {
			continue
		}
		// Asymmetric technologies: a radio whose own inquiry overlapped any
		// part of our inquiry window was not discoverable during it.
		if p.Asymmetric && other.inquiringUntil.After(start) {
			continue
		}
		d := selfPos.Dist(other.dev.Position())
		if d > p.CoverageRadius {
			continue
		}
		if !r.w.src.Bool(p.ResponseProb) {
			continue
		}
		q := r.w.qualityAtLocked(d, p)
		out = append(out, InquiryResult{Addr: other.addr, Quality: q})
		r.w.stats.InquiryResponses++
	}
	return out
}

// QualityTo returns the current link quality between this radio and the
// addressed one, or 0 if it is out of range, down, or missing.
func (r *Radio) QualityTo(a device.Addr) int {
	other, ok := r.w.FindRadio(a)
	if !ok || other.addr.Tech != r.addr.Tech {
		return 0
	}
	if r.dev.IsDown() || other.dev.IsDown() {
		return 0
	}
	if !r.w.allowed(r, other) {
		return 0
	}
	p := r.w.Params(r.addr.Tech)
	d := r.dev.Position().Dist(other.dev.Position())
	if d > p.CoverageRadius {
		return 0
	}
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.qualityAtLocked(d, p)
}

// qualityAtLocked maps distance to the 0–255 quality scale with Gaussian
// noise. Callers hold w.mu.
func (w *World) qualityAtLocked(dist float64, p TechParams) int {
	return qualityAt(dist, p, w.qualityNoise, w.src)
}

// qualityAt maps distance to the 0–255 quality scale, adding Gaussian
// noise of the given stddev sampled from src. It is the single quality
// model shared by the classic World and the ShardedWorld.
func qualityAt(dist float64, p TechParams, noise float64, src *rng.Source) int {
	if dist > p.CoverageRadius {
		return 0
	}
	frac := 0.0
	if p.CoverageRadius > 0 {
		frac = dist / p.CoverageRadius
	}
	base := float64(p.EdgeQuality) + (QualityMax-float64(p.EdgeQuality))*(1-frac)
	if noise > 0 {
		base = src.Normal(base, noise)
	}
	return int(rng.Clamp(base, 0, QualityMax))
}

// Listener accepts incoming connections on one (radio, port).
type Listener struct {
	w   *World
	key listenKey

	mu      sync.Mutex
	cond    *sync.Cond
	parked  clock.WaitList // blocked Accept and backlog-full Dial callers
	backlog []*Conn        // dialed, not yet accepted; at most acceptBacklog
	closed  bool
}

// Listen starts accepting connections on the given port of this radio.
func (r *Radio) Listen(port uint16) (*Listener, error) {
	key := listenKey{addr: r.addr, port: port}
	l := &Listener{w: r.w, key: key, parked: clock.NewWaitList(r.w.clk)}
	l.cond = sync.NewCond(&l.mu)
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	if _, dup := r.w.listeners[key]; dup {
		return nil, fmt.Errorf("simnet: port %d already bound on %v", port, r.addr)
	}
	r.w.listeners[key] = l
	return l, nil
}

// Accept blocks until a connection arrives or the listener closes.
func (l *Listener) Accept() (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.parked.Park()
		l.cond.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	l.signal() // a backlog slot opened for a blocked dialer
	return c, nil
}

// enqueue hands a dialed server endpoint to the listener. The backlog
// models a TCP accept queue: once it is full the dialer blocks until the
// server accepts or the listener closes, like a saturated SYN queue. It
// reports false if the listener closed first.
func (l *Listener) enqueue(c *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) >= acceptBacklog && !l.closed {
		l.parked.Park()
		l.cond.Wait()
	}
	if l.closed {
		return false
	}
	l.backlog = append(l.backlog, c)
	l.signal()
	return true
}

// signal wakes every blocked Accept and enqueue. Callers hold l.mu.
func (l *Listener) signal() {
	l.parked.WakeAll()
	l.cond.Broadcast()
}

// Close stops the listener. Pending un-accepted connections are broken.
func (l *Listener) Close() error {
	l.w.mu.Lock()
	if l.w.listeners[l.key] == l {
		delete(l.w.listeners, l.key)
	}
	l.w.mu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	pending := l.backlog
	l.backlog = nil
	l.signal()
	l.mu.Unlock()
	for _, c := range pending {
		c.link.breakWith(ErrRefused)
	}
	return nil
}

// Dial connects this radio to a service port on the addressed radio. It
// blocks for the sampled connection-establishment latency, may fail with
// ErrConnectFault (per TechParams.FaultProb), and re-checks coverage after
// the latency has elapsed — a device that walked away during the 3–18 s
// Bluetooth setup window produces ErrOutOfRange exactly as the thesis
// observed (§5.2.1).
func (r *Radio) Dial(to device.Addr, port uint16) (*Conn, error) {
	w := r.w
	w.mu.Lock()
	w.stats.DialsAttempted++
	w.mu.Unlock()

	if to.Tech != r.addr.Tech {
		return nil, fmt.Errorf("%w: %v -> %v", ErrTechMismatch, r.addr.Tech, to.Tech)
	}
	p := w.Params(r.addr.Tech)

	check := func() (*Radio, error) {
		target, ok := w.FindRadio(to)
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrNoSuchRadio, to)
		}
		if r.dev.IsDown() || target.dev.IsDown() {
			return nil, ErrRadioDown
		}
		if d := r.dev.Position().Dist(target.dev.Position()); d > p.CoverageRadius {
			w.mu.Lock()
			w.stats.DialsOutOfRange++
			w.tDialsRange.Inc()
			w.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrOutOfRange, to)
		}
		// A filtered pair (partition, blackout) is indistinguishable from
		// an out-of-coverage one at the radio level.
		if !w.allowed(r, target) {
			w.mu.Lock()
			w.stats.DialsOutOfRange++
			w.tDialsRange.Inc()
			w.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrOutOfRange, to)
		}
		return target, nil
	}

	if _, err := check(); err != nil {
		return nil, err
	}

	// Connection-establishment latency, sampled uniformly per the thesis'
	// observed range.
	lat := time.Duration(w.src.Uniform(float64(p.ConnectMin), float64(p.ConnectMax)+1))
	if lat > 0 {
		w.clk.Sleep(lat)
	}

	if w.src.Bool(p.FaultProb) {
		w.mu.Lock()
		w.stats.DialsFaulted++
		w.tDialsFaulted.Inc()
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: dialing %v", ErrConnectFault, to)
	}

	target, err := check()
	if err != nil {
		return nil, err
	}

	w.mu.Lock()
	l, ok := w.listeners[listenKey{addr: to, port: port}]
	if !ok {
		w.stats.DialsRefused++
		w.tDialsRefused.Inc()
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: %v port %d", ErrRefused, to, port)
	}
	w.nextLinkID++
	lk := newLink(w, w.nextLinkID, r, target, p.Bandwidth)
	if imp, ok := w.impairmentForLocked(r.addr, to); ok {
		lk.a.imp = newImpairState(imp, w.src.Fork(), w.clk.Now())
	}
	if imp, ok := w.impairmentForLocked(to, r.addr); ok {
		lk.b.imp = newImpairState(imp, w.src.Fork(), w.clk.Now())
	}
	w.links[lk.id] = lk
	w.stats.DialsSucceeded++
	w.tDialsOK.Inc()
	w.mu.Unlock()

	if !l.enqueue(lk.b) {
		lk.breakWith(ErrRefused)
		w.mu.Lock()
		w.stats.DialsRefused++
		w.tDialsRefused.Inc()
		w.mu.Unlock()
		return nil, fmt.Errorf("%w: %v port %d", ErrRefused, to, port)
	}
	return lk.a, nil
}

// CheckLinks breaks every established link whose endpoints are no longer in
// mutual coverage (or whose devices are down). It returns the number of
// links broken. Experiments run it from StartAutoCheck; deterministic tests
// call it directly after moving devices.
func (w *World) CheckLinks() int {
	w.mu.Lock()
	var doomed []*link
	for _, lk := range w.links {
		if !w.linkAliveLocked(lk) {
			doomed = append(doomed, lk)
		}
	}
	w.mu.Unlock()

	for _, lk := range doomed {
		lk.breakWith(ErrLinkLost)
	}
	return len(doomed)
}

func (w *World) linkAliveLocked(lk *link) bool {
	ra, rb := lk.a.local, lk.b.local
	if ra.dev.IsDown() || rb.dev.IsDown() {
		return false
	}
	if !w.allowedLocked(ra, rb) {
		return false
	}
	p := w.params[ra.addr.Tech]
	// Grid fast path: endpoints bucketed far enough apart are certainly
	// out of range even at maximum drift, with no position evaluation.
	// Unusable when the drift bound is unbounded (scanAllRings).
	if !w.linearScan {
		g := w.gridLocked(ra.addr.Tech)
		if g.queryRings != scanAllRings {
			ca, okA := g.loc[ra]
			cb, okB := g.loc[rb]
			if okA && okB && ca.ChebyshevDist(cb) >= g.deadCheb {
				return false
			}
		}
	}
	return ra.dev.Position().Dist(rb.dev.Position()) <= p.CoverageRadius
}

// StartAutoCheck launches a background goroutine that runs CheckLinks every
// interval of simulated time, until Close is called. It is idempotent.
func (w *World) StartAutoCheck(interval time.Duration) {
	w.mu.Lock()
	if w.checkStop != nil {
		w.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.checkStop, w.checkDone = stop, done
	w.mu.Unlock()

	go func() {
		defer close(done)
		tk := w.clk.NewTicker(interval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C():
				w.CheckLinks()
			case <-stop:
				return
			}
		}
	}()
}

// Settle blocks until the world is quiescent: every goroutine started
// through clock.Go on the world's clock — the accept loops, responders,
// service handlers and relay pumps of the daemons, libraries and bridges
// on it — has returned or is parked, blocked on a Conn read, a Listener
// Accept, a dial into a full accept backlog, the manual clock, or a
// virtual connection's swap wait. A driver stepping a manual-clock world
// calls it after every step, so each step's effects (relay teardown after
// a link break, acknowledged chains, reconnect swaps) have all landed
// before the next step reads the state, whatever the scheduler did.
//
// The decision comes from the clock's Go/Park/Wake accounting alone,
// never from wall-clock time. Autonomous timer loops (AutoDiscover,
// StartAutoCheck, a handover thread's own ticker) are outside it: a
// settled run steps those components itself. On a clock other than
// clock.Manual nothing is tracked and Settle returns at once.
func (w *World) Settle() {
	if m, ok := w.clk.(*clock.Manual); ok {
		m.Settle()
	}
}

// Close stops the auto-checker (if running) and breaks every live link.
func (w *World) Close() error {
	w.mu.Lock()
	stop, done := w.checkStop, w.checkDone
	w.checkStop, w.checkDone = nil, nil
	links := make([]*link, 0, len(w.links))
	for _, lk := range w.links {
		links = append(links, lk)
	}
	w.mu.Unlock()

	if stop != nil {
		close(stop)
		<-done
	}
	for _, lk := range links {
		lk.breakWith(ErrClosed)
	}
	return nil
}

// removeLink drops a dead link from the registry.
func (w *World) removeLink(id int64) {
	w.mu.Lock()
	delete(w.links, id)
	w.stats.LinksBroken++
	w.tLinksBroken.Inc()
	w.mu.Unlock()
}

// ActiveLinks reports how many links are currently established.
func (w *World) ActiveLinks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.links)
}
