// Package peerhood is a Go implementation of the PeerHood mobile
// peer-to-peer middleware as extended by "Addressing mobility issues in
// mobile environment" (Ji Zhang, 2008): total-environment-aware dynamic
// device discovery, multi-hop bridge interconnection, and soft handover
// for task migration in changing wireless environments.
//
// A Node bundles the thesis' daemon (discovery + device storage +
// information responder), library (connections + engine), hidden bridge
// service, and handover support. Nodes live either in a simulated wireless
// world (NewWorld/World.NewNode — the form used by the examples,
// experiments, and tests) or on a real IP network (internal/tcpnet via
// cmd/peerhoodd).
//
// Quickstart:
//
//	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: 1})
//	defer w.Close()
//	server, _ := w.NewNode(peerhood.NodeConfig{Name: "pc", Position: peerhood.Pt(3, 0)})
//	phone, _ := w.NewNode(peerhood.NodeConfig{Name: "phone", Position: peerhood.Pt(0, 0), Mobility: peerhood.Dynamic})
//	server.RegisterService("echo", "", func(c *peerhood.Connection, m peerhood.ConnectionMeta) { ... })
//	w.RunDiscoveryRounds(2)
//	conn, _ := phone.Connect(server.Addr(), "echo")
package peerhood

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"peerhood/internal/bridge"
	"peerhood/internal/clock"
	"peerhood/internal/daemon"
	"peerhood/internal/device"
	"peerhood/internal/discovery"
	"peerhood/internal/events"
	"peerhood/internal/faultplane"
	"peerhood/internal/geo"
	"peerhood/internal/handover"
	"peerhood/internal/library"
	"peerhood/internal/linkmon"
	"peerhood/internal/mobility"
	"peerhood/internal/plugin"
	"peerhood/internal/simnet"
	"peerhood/internal/storage"
	"peerhood/internal/telemetry"
)

// Re-exported core types. The aliases keep one set of types across the
// public API and the internal packages.
type (
	// Addr identifies one radio interface (technology + MAC).
	Addr = device.Addr
	// Tech is a network technology.
	Tech = device.Tech
	// Mobility is a device mobility class (§3.4.3).
	Mobility = device.Mobility
	// ServiceInfo describes a registered service.
	ServiceInfo = device.ServiceInfo
	// DeviceInfo is a device descriptor.
	DeviceInfo = device.Info
	// Entry is one row of a node's device storage (descriptor + routes).
	Entry = storage.Entry
	// Route is one way to reach a device (direct or via a bridge).
	Route = storage.Route
	// ServiceProvider pairs a device with one of its services.
	ServiceProvider = storage.ServiceProvider
	// Connection is a virtual connection whose transport survives
	// handovers.
	Connection = library.VirtualConnection
	// ConnectionMeta describes an incoming connection to a handler.
	ConnectionMeta = library.ConnectionMeta
	// Handler consumes incoming service connections.
	Handler = library.Handler
	// HandoverThread monitors one connection and performs handovers.
	HandoverThread = handover.Thread
	// HandoverEvent is a handover lifecycle notification.
	HandoverEvent = handover.Event
	// Point is a position in the simulated world, in metres.
	Point = geo.Point
	// MobilityModel moves a simulated device over time.
	MobilityModel = mobility.Model
	// Event is one neighbourhood bus notification (device appeared/lost,
	// link degrading/recovered/lost, handover lifecycle).
	Event = events.Event
	// EventType identifies an Event kind.
	EventType = events.Type
	// EventMask filters event types in Events subscriptions.
	EventMask = events.Mask
	// EventSubscription is a live neighbourhood event feed.
	EventSubscription = events.Subscription
	// LinkState is one monitored link's trend state (level, slope,
	// classification, predicted time-to-threshold).
	LinkState = linkmon.State
	// Impairment is a per-link-direction failure-weather profile: silent
	// frame loss, delivery jitter, Gilbert–Elliott burst outages, and a
	// measured-quality penalty (fault injection).
	Impairment = simnet.Impairment
	// FaultScript is an ordered, clock-scheduled list of fault events
	// (partitions, blackouts, impairments, crash/restart churn) plus
	// assertions — declarative failure weather for a world.
	FaultScript = faultplane.Script
	// FaultEvent schedules one fault action at a time offset.
	FaultEvent = faultplane.Event
	// Rect is an axis-aligned region, used by blackout events.
	Rect = geo.Rect

	// The fault actions, so a whole script can be written against this
	// package alone (internal/faultplane is unreachable from outside the
	// module).
	FaultPartition   = faultplane.Partition
	FaultBlackout    = faultplane.Blackout
	FaultImpair      = faultplane.Impair
	FaultClearImpair = faultplane.ClearImpair
	FaultHeal        = faultplane.Heal
	FaultCrash       = faultplane.Crash
	FaultRestart     = faultplane.Restart
	FaultCheck       = faultplane.Check
)

// Re-exported constants.
const (
	// Bluetooth, WLAN and GPRS are the technologies PeerHood supports.
	Bluetooth = device.TechBluetooth
	WLAN      = device.TechWLAN
	GPRS      = device.TechGPRS

	// Static, Hybrid and Dynamic are the mobility classes with the
	// thesis' comparison weights {0, 1, 3}.
	Static  = device.Static
	Hybrid  = device.Hybrid
	Dynamic = device.Dynamic

	// QualityThreshold is the 230 link-quality threshold used for route
	// acceptance and handover triggering throughout the thesis.
	QualityThreshold = simnet.QualityThreshold

	// Neighbourhood event types (see Events / phctl watch).
	EventDeviceAppeared    = events.DeviceAppeared
	EventDeviceLost        = events.DeviceLost
	EventLinkDegrading     = events.LinkDegrading
	EventLinkRecovered     = events.LinkRecovered
	EventLinkLost          = events.LinkLost
	EventHandoverStarted   = events.HandoverStarted
	EventHandoverCompleted = events.HandoverCompleted
	EventHandoverFailed    = events.HandoverFailed
	EventVerticalHandover  = events.VerticalHandover

	// Handover selection policies (NodeConfig.HandoverPolicy,
	// HandoverConfig.Policy).
	PolicyStrongestLink  = handover.PolicyStrongestLink
	PolicyBandwidthFirst = handover.PolicyBandwidthFirst
	PolicyCostFirst      = handover.PolicyCostFirst
)

// MaskOf builds an EventMask selecting exactly the given event types; the
// zero mask selects everything.
func MaskOf(types ...EventType) EventMask { return events.MaskOf(types...) }

// Pt is shorthand for a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// Walk returns a mobility model walking between two points at the given
// speed in m/s (1.4 approximates the thesis' corridor walk).
func Walk(from, to Point, speed float64) MobilityModel {
	return mobility.Walk(from, to, speed)
}

// StayAt returns a static mobility model.
func StayAt(p Point) MobilityModel { return mobility.Static{At: p} }

// WorldConfig parametrises a simulated world.
type WorldConfig struct {
	// Seed drives all randomness; experiments print it for
	// reproducibility.
	Seed int64
	// TimeScale compresses simulated time: 1000 means one simulated
	// second passes per wall millisecond. 0 means real time; 1 is real
	// time too. Deterministic tests use Instant instead.
	TimeScale int
	// Instant removes all latencies, faults, and quality noise — the
	// deterministic mode for protocol-state assertions.
	Instant bool
	// LinkCheckInterval is how often the world breaks out-of-coverage
	// links; 0 disables the background checker (call CheckLinks
	// manually).
	LinkCheckInterval time.Duration
	// LinearScan disables the spatial grid index and restores the
	// original full-scan neighbour lookup — the reference behaviour for
	// equivalence tests and A/B benchmarks.
	LinearScan bool
	// Clock, if set, drives the world directly and overrides TimeScale.
	// Scripted fault scenarios pass clock.NewManual() here so the whole
	// run — including the fault plane's schedule — replays
	// bit-identically from the seed.
	Clock clock.Clock
}

// World is a simulated wireless environment holding PeerHood nodes.
type World struct {
	sim *simnet.World
	clk clock.Clock
	reg *telemetry.Registry

	mu    sync.Mutex
	nodes []*Node
	fault *faultplane.Plane
}

// NewWorld creates a simulated world.
func NewWorld(cfg WorldConfig) *World {
	var clk clock.Clock
	switch {
	case cfg.Clock != nil:
		clk = cfg.Clock
	case cfg.TimeScale > 1:
		clk = clock.Scaled(cfg.TimeScale)
	default:
		clk = clock.Real()
	}
	var opts []simnet.Option
	if cfg.Instant {
		opts = append(opts, simnet.WithQualityNoise(0))
		for _, t := range device.Techs() {
			opts = append(opts, simnet.WithParams(t, simnet.DefaultParams(t).Instant()))
		}
	}
	if cfg.LinearScan {
		opts = append(opts, simnet.WithLinearScan())
	}
	w := &World{sim: simnet.NewWorld(clk, cfg.Seed, opts...), clk: clk, reg: telemetry.NewRegistry()}
	w.sim.Instrument(w.reg)
	if cfg.LinkCheckInterval > 0 {
		w.sim.StartAutoCheck(cfg.LinkCheckInterval)
	}
	return w
}

// Registry returns the world's telemetry registry: the radio substrate's
// frame/dial/link counters, aggregated across every node (per-daemon
// registries live on each node's Daemon). Scenario reports read it
// through the experiments telemetry adapter.
func (w *World) Registry() *telemetry.Registry { return w.reg }

// Sim exposes the underlying simulator for advanced scenarios (fault
// injection, parameter overrides in experiments).
func (w *World) Sim() *simnet.World { return w.sim }

// Fault returns the world's fault-injection plane, creating it (and
// installing its link filter) on first use. Load a FaultScript on it to
// schedule partitions, regional blackouts, link impairments, and node
// crash/restart churn; crash and restart events resolve node names against
// this world's nodes.
func (w *World) Fault() *faultplane.Plane {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fault == nil {
		p, err := faultplane.New(faultplane.Config{
			World: w.sim,
			Clock: w.clk,
			Resolve: func(name string) (faultplane.NodeHandle, bool) {
				n, ok := w.findNode(name)
				return n, ok
			},
		})
		if err != nil {
			// Unreachable: the world is always non-nil here.
			panic(err)
		}
		w.fault = p
	}
	return w.fault
}

// findNode returns the named node.
func (w *World) findNode(name string) (*Node, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, n := range w.nodes {
		if n.Name() == name {
			return n, true
		}
	}
	return nil, false
}

// Clock returns the world's clock.
func (w *World) Clock() clock.Clock { return w.clk }

// CheckLinks breaks links whose endpoints left mutual coverage.
func (w *World) CheckLinks() int { return w.sim.CheckLinks() }

// Settle blocks until every goroutine of the world's nodes is parked or
// gone (see simnet.World.Settle): the barrier a manual-clock driver calls
// after each step so a scenario replays identically from its seed. It
// returns at once on real and scaled clocks.
func (w *World) Settle() { w.sim.Settle() }

// GridStats snapshots the world's per-technology spatial radio index
// (occupancy, refresh counts) — the structure that makes neighbour lookup
// O(cell occupancy) instead of O(world size).
func (w *World) GridStats() []simnet.GridStats { return w.sim.GridStats() }

// RunDiscoveryRounds drives n synchronous discovery rounds on every node
// in creation order; n rounds propagate awareness n jumps (fig 3.10). The
// world settles before the first round and after each node's round, so on
// a manual clock the rounds replay identically from the seed.
func (w *World) RunDiscoveryRounds(n int) {
	w.mu.Lock()
	nodes := append([]*Node(nil), w.nodes...)
	w.mu.Unlock()
	w.sim.Settle()
	for i := 0; i < n; i++ {
		for _, node := range nodes {
			node.RunDiscoveryRound()
			w.sim.Settle()
		}
	}
}

// Close stops every node and tears the world down.
func (w *World) Close() error {
	w.mu.Lock()
	nodes := append([]*Node(nil), w.nodes...)
	w.nodes = nil
	w.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	return w.sim.Close()
}

// NodeConfig parametrises one PeerHood node.
type NodeConfig struct {
	// Name is the device name (required, unique per world).
	Name string
	// Mobility is the advertised mobility class.
	Mobility Mobility
	// Position places a non-moving device; ignored if Model is set.
	Position Point
	// Model moves the device; nil means stay at Position.
	Model MobilityModel
	// Techs lists the radios to attach; nil means Bluetooth only.
	Techs []Tech
	// DisableBridge turns the hidden bridge service off (§4's
	// battery-saving option).
	DisableBridge bool
	// BridgeMaxPairs caps simultaneous relays (default 16).
	BridgeMaxPairs int
	// AutoDiscover starts the background discovery loops; leave false to
	// drive rounds manually (deterministic runs).
	AutoDiscover bool
	// LegacyDiscovery uses the pre-thesis one-level neighbourhood fetch
	// (baseline F3.3).
	LegacyDiscovery bool
	// FullSyncOnly disables the versioned delta neighbourhood exchange on
	// this node's fetches, re-transmitting the peer's whole table every
	// round (baseline for experiment S2's delta-vs-full comparison).
	FullSyncOnly bool
	// ServiceCheckInterval is the fig 3.12 re-fetch interval; zero
	// fetches every round.
	ServiceCheckInterval time.Duration
	// DialRetries overrides connection-fault retries (default 2;
	// negative disables retries).
	DialRetries int
	// SwapWait overrides how long reads/writes wait for a handover.
	SwapWait time.Duration
	// QualityFirst swaps route selection from mobility-first to
	// quality-first (ablation A1).
	QualityFirst bool
	// LinkHorizon is the link monitor's degradation-prediction horizon
	// (0 = linkmon default, 10 s).
	LinkHorizon time.Duration
	// LinkWindow is the link monitor's trend window in samples (0 =
	// linkmon default, 8); larger windows average out more quality noise.
	LinkWindow int
	// MaxMissedLoops is how many discovery rounds a stored device may go
	// unseen before it ages out (0 = storage default, 2). Fault-heavy
	// scenarios raise it so short blackouts do not wipe whole tables.
	MaxMissedLoops int
	// HandoverPolicy names the default candidate-selection policy for
	// handover threads attached to this node's connections:
	// PolicyStrongestLink (default), PolicyBandwidthFirst, or
	// PolicyCostFirst. HandoverConfig.Policy overrides it per thread.
	HandoverPolicy string
	// DisableIdentity makes the node behave like a pre-identity peer: no
	// sibling-interface advertisement, no identity-capable fetching, legacy
	// wire forms served — the interop baseline for vertical handover.
	DisableIdentity bool
}

// Node is one PeerHood device: daemon + library + bridge, ready to
// register services and connect. The daemon/library/bridge stack can be
// torn down and rebuilt by Crash/Restart (fault-plane churn) while the
// simulated device and its radios stay in the world.
type Node struct {
	world *World
	dev   *simnet.Device
	cfg   NodeConfig
	techs []Tech

	mu      sync.Mutex
	daemon  *daemon.Daemon
	lib     *library.Library
	bridge  *bridge.Service
	threads []*handover.Thread
	crashed bool
	stopped bool
}

// NewNode creates and starts a node in the world.
func (w *World) NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("peerhood: NodeConfig.Name is required")
	}
	techs := cfg.Techs
	if len(techs) == 0 {
		techs = []Tech{Bluetooth}
	}
	model := cfg.Model
	if model == nil {
		model = mobility.Static{At: cfg.Position}
	}

	dev, err := w.sim.AddDevice(cfg.Name, model)
	if err != nil {
		return nil, err
	}
	for _, t := range techs {
		if _, err := dev.AddRadio(t); err != nil {
			return nil, err
		}
	}

	n := &Node{world: w, dev: dev, cfg: cfg, techs: techs}
	if err := n.start(); err != nil {
		return nil, err
	}

	w.mu.Lock()
	w.nodes = append(w.nodes, n)
	w.mu.Unlock()
	return n, nil
}

// start builds and starts the node's daemon, library, and bridge on the
// device's existing radios. NewNode calls it once; Restart calls it again
// after a Crash, which is why a fresh daemon (and so a fresh storage
// epoch) is built every time.
func (n *Node) start() error {
	cfg, w := n.cfg, n.world

	// Bridge load feeds the daemon's advertised-quality penalty (§4).
	loadPenalty := func() int {
		n.mu.Lock()
		b := n.bridge
		n.mu.Unlock()
		if b == nil {
			return 0
		}
		return b.LoadPenalty()
	}

	d, err := daemon.New(daemon.Config{
		Name:                 cfg.Name,
		Mobility:             cfg.Mobility,
		Clock:                w.clk,
		ServiceCheckInterval: cfg.ServiceCheckInterval,
		LegacyOneHop:         cfg.LegacyDiscovery,
		DisableDeltaSync:     cfg.FullSyncOnly,
		DisableIdentity:      cfg.DisableIdentity,
		QualityFirst:         cfg.QualityFirst,
		LoadPenalty:          loadPenalty,
		LinkHorizon:          cfg.LinkHorizon,
		LinkWindow:           cfg.LinkWindow,
		MaxMissedLoops:       cfg.MaxMissedLoops,
	})
	if err != nil {
		return err
	}
	for _, t := range n.techs {
		radio, ok := n.dev.Radio(t)
		if !ok {
			return fmt.Errorf("peerhood: device %q lost its %v radio", cfg.Name, t)
		}
		if err := d.AddPlugin(pluginFor(w.sim, radio)); err != nil {
			return err
		}
	}
	if err := d.Start(cfg.AutoDiscover); err != nil {
		return err
	}

	lib, err := library.New(library.Config{
		Daemon:      d,
		DialRetries: cfg.DialRetries,
		SwapWait:    cfg.SwapWait,
	})
	if err != nil {
		d.Stop()
		return err
	}
	if err := lib.Start(); err != nil {
		d.Stop()
		return err
	}

	var b *bridge.Service
	if !cfg.DisableBridge {
		b, err = bridge.Attach(bridge.Config{Library: lib, MaxPairs: cfg.BridgeMaxPairs})
		if err != nil {
			lib.Stop()
			d.Stop()
			return err
		}
	}

	n.mu.Lock()
	n.daemon, n.lib, n.bridge = d, lib, b
	n.mu.Unlock()
	return nil
}

// d returns the node's current daemon.
func (n *Node) d() *daemon.Daemon {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.daemon
}

// l returns the node's current library.
func (n *Node) l() *library.Library {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lib
}

// Name returns the node's device name.
func (n *Node) Name() string { return n.cfg.Name }

// Crash tears the node's daemon, library, and bridge down abruptly,
// leaving registered handover threads orphaned (their monitored
// connections die with the library) and the simulated device in the
// world. It implements the fault plane's NodeHandle; a faultplane.Crash
// event also powers the device's radios down. Idempotent.
func (n *Node) Crash() error {
	n.mu.Lock()
	if n.crashed || n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.crashed = true
	threads := n.threads
	n.threads = nil
	b := n.bridge
	lib, d := n.lib, n.daemon
	n.bridge = nil
	n.mu.Unlock()

	for _, th := range threads {
		th.Stop()
	}
	if b != nil {
		_ = b.Close()
	}
	lib.Stop()
	d.Stop()
	return nil
}

// Restart rebuilds a crashed node's daemon, library, and bridge on the
// same radios. The replacement daemon starts with an empty storage table
// and a fresh epoch: peers that had delta-synced with the old instance
// detect the restart on their next fetch and fall back to a full
// neighbourhood resync — the recovery path the fault plane's churn events
// exist to exercise.
func (n *Node) Restart() error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return errors.New("peerhood: Restart on a stopped node")
	}
	if !n.crashed {
		n.mu.Unlock()
		return errors.New("peerhood: Restart on a node that was not crashed")
	}
	n.mu.Unlock()

	if err := n.start(); err != nil {
		return err
	}
	// A Stop may have raced the rebuild (a background fault script
	// restarting a node while the world shuts down): it saw crashed=true
	// and stopped nothing, so the components start() just built are ours
	// to tear down.
	n.mu.Lock()
	if n.stopped {
		b, lib, d := n.bridge, n.lib, n.daemon
		n.bridge = nil
		n.mu.Unlock()
		if b != nil {
			_ = b.Close()
		}
		lib.Stop()
		d.Stop()
		return errors.New("peerhood: node stopped during Restart")
	}
	n.crashed = false
	n.mu.Unlock()
	return nil
}

// Addr returns the node's primary (first-technology) radio address.
func (n *Node) Addr() Addr {
	ps := n.d().Plugins()
	if len(ps) == 0 {
		return Addr{}
	}
	return ps[0].Addr()
}

// AddrFor returns the node's radio address for a technology.
func (n *Node) AddrFor(t Tech) (Addr, bool) {
	p, ok := n.d().PluginFor(t)
	if !ok {
		return Addr{}, false
	}
	return p.Addr(), true
}

// Info returns the descriptor the node advertises on its primary radio.
func (n *Node) Info() DeviceInfo {
	ps := n.d().Plugins()
	if len(ps) == 0 {
		return DeviceInfo{}
	}
	info, _ := n.d().InfoFor(ps[0].Tech())
	return info
}

// Library exposes the node's PeerHood library.
func (n *Node) Library() *library.Library { return n.l() }

// Daemon exposes the node's daemon.
func (n *Node) Daemon() *daemon.Daemon { return n.d() }

// BridgeService exposes the node's bridge (nil if disabled).
func (n *Node) BridgeService() *bridge.Service {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bridge
}

// Device exposes the simulated device (position, movement, power).
func (n *Node) Device() *simnet.Device { return n.dev }

// SetModel changes how the node moves from now on.
func (n *Node) SetModel(m MobilityModel) { n.dev.SetModel(m) }

// Position returns the node's current position.
func (n *Node) Position() Point { return n.dev.Position() }

// RegisterService registers a named service with a connection handler
// (the thesis' RegisterService + Engine callback pair).
func (n *Node) RegisterService(name, attr string, h Handler) (ServiceInfo, error) {
	return n.l().RegisterService(name, attr, h)
}

// UnregisterService removes a service.
func (n *Node) UnregisterService(name string) { n.l().UnregisterService(name) }

// Devices returns the node's device storage (GetDeviceList).
func (n *Node) Devices() []Entry { return n.l().GetDeviceList() }

// Providers returns known providers of a named service (GetServiceList).
func (n *Node) Providers(service string) []ServiceProvider {
	return n.l().GetServiceList(service)
}

// LookupDevice returns the storage entry for an address.
func (n *Node) LookupDevice(a Addr) (Entry, bool) {
	return n.d().Storage().Lookup(a)
}

// FindDevice returns the storage entry for a device name.
func (n *Node) FindDevice(name string) (Entry, bool) {
	return n.d().Storage().FindByName(name)
}

// StorageTable renders the node's device storage as a table (fig 3.6).
func (n *Node) StorageTable() string { return n.d().Storage().String() }

// RunDiscoveryRound performs one synchronous discovery round on every
// attached plugin.
func (n *Node) RunDiscoveryRound() { n.d().RunDiscoveryRound() }

// Events subscribes to the node's neighbourhood event bus: device
// appearances and losses from discovery, link degradation predictions
// from the link monitor, and handover lifecycle notifications. A zero
// mask subscribes to everything. Close the subscription when done; it
// also closes when the node stops.
func (n *Node) Events(mask EventMask) *EventSubscription {
	return n.l().Events(mask)
}

// LinkStates snapshots the link monitor's view of every observed link.
func (n *Node) LinkStates() []LinkState {
	return n.d().LinkMonitor().States()
}

// Connect establishes a connection to a named service on a target device,
// directly or through bridges, using the best stored route.
func (n *Node) Connect(target Addr, service string, opts ...library.ConnectOption) (*Connection, error) {
	return n.l().Connect(target, service, opts...)
}

// WithClientInfo re-exports the Connect option enabling server dial-back
// (§5.3).
func WithClientInfo() library.ConnectOption { return library.WithClientInfo() }

// WithTech re-exports the Connect option stating a per-connection bearer
// preference: dial the target device's sibling interface of technology t
// when its identity has one stored and reachable.
func WithTech(t Tech) library.ConnectOption { return library.WithTech(t) }

// WithContinuity re-exports the Connect option enabling the zero-loss
// session-continuity window: handovers resume the byte stream (PH_RESUME)
// instead of tearing it, with the un-acked tail replayed on the new bearer.
// Legacy peers that do not speak the extension fall back to today's lossy
// behaviour automatically.
func WithContinuity() library.ConnectOption { return library.WithContinuity() }

// WithContinuityWindow is WithContinuity with an explicit send-window bound
// in bytes (<= 0 takes the default).
func WithContinuityWindow(bytes int) library.ConnectOption {
	return library.WithContinuityWindow(bytes)
}

// SiblingsOf returns the stored entries for the other interfaces of a's
// device identity (the cross-interface identity plane).
func (n *Node) SiblingsOf(a Addr) []Entry { return n.d().Storage().Siblings(a) }

// HandoverConfig tunes MonitorHandover. Zero values take the thesis'
// defaults (threshold 230, low-limit 3, 1 s interval).
type HandoverConfig struct {
	Threshold        int
	LowLimit         int
	Interval         time.Duration
	MaxRouteAttempts int
	MaxFailures      int
	ThesisMode       bool // disallow returning to direct routes (fig 5.7)
	AllowReconnect   func(p ServiceProvider) bool
	Observer         handover.Observer
	ManualSteps      bool // do not start the background loop

	// Predictive enables proactive handover on the link monitor's
	// degradation predictions: re-route while quality is still above the
	// threshold, keeping the reactive trigger as fallback.
	Predictive bool
	// PredictHorizon is the act-ahead window (default 5 s).
	PredictHorizon time.Duration
	// PredictCooldown spaces predictive triggers (default 10 s).
	PredictCooldown time.Duration

	// Policy names the candidate-selection policy (PolicyStrongestLink,
	// PolicyBandwidthFirst, PolicyCostFirst); empty uses the node's
	// HandoverPolicy, and failing that strongest-link.
	Policy string
	// TechHold is the per-tech hysteresis dwell after a vertical switch
	// (default 15 s): discretionary bearer changes are suppressed and
	// same-tech rescue candidates preferred, so BT↔WLAN cannot flap.
	TechHold time.Duration
	// UpgradeMargin is the quality headroom above the threshold a
	// candidate needs before a discretionary upgrade takes it (default 10).
	UpgradeMargin int
	// UpgradeCooldown spaces failed discretionary upgrade attempts
	// (default 5 s), bounding dial churn when the preferred bearer keeps
	// refusing.
	UpgradeCooldown time.Duration
}

// MonitorHandover attaches a handover thread to a connection and (unless
// ManualSteps) starts it. The node stops it on Stop.
func (n *Node) MonitorHandover(conn *Connection, cfg HandoverConfig) (*HandoverThread, error) {
	policyName := cfg.Policy
	if policyName == "" {
		policyName = n.cfg.HandoverPolicy
	}
	policy, err := handover.PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	th, err := handover.New(handover.Config{
		Library:              n.l(),
		Conn:                 conn,
		Threshold:            cfg.Threshold,
		LowLimit:             cfg.LowLimit,
		Interval:             cfg.Interval,
		MaxRouteAttempts:     cfg.MaxRouteAttempts,
		MaxFailures:          cfg.MaxFailures,
		DisallowDirectReturn: cfg.ThesisMode,
		AllowReconnect:       cfg.AllowReconnect,
		Observer:             cfg.Observer,
		Predictive:           cfg.Predictive,
		PredictHorizon:       cfg.PredictHorizon,
		PredictCooldown:      cfg.PredictCooldown,
		Policy:               policy,
		TechHold:             cfg.TechHold,
		UpgradeMargin:        cfg.UpgradeMargin,
		UpgradeCooldown:      cfg.UpgradeCooldown,
	})
	if err != nil {
		return nil, err
	}
	if !cfg.ManualSteps {
		th.Start()
	}
	n.mu.Lock()
	n.threads = append(n.threads, th)
	n.mu.Unlock()
	return th, nil
}

// Stop shuts the node down: handover threads, bridge, library, daemon.
// A crashed node's components are already stopped; Stop then only seals
// the node against Restart.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	crashed := n.crashed
	threads := n.threads
	b := n.bridge
	lib, d := n.lib, n.daemon
	n.mu.Unlock()

	if crashed {
		return
	}
	for _, th := range threads {
		th.Stop()
	}
	if b != nil {
		_ = b.Close()
	}
	lib.Stop()
	d.Stop()
}

// pluginFor wraps a simulated radio in the plugin interface.
func pluginFor(w *simnet.World, r *simnet.Radio) *plugin.Sim {
	return plugin.NewSim(w, r)
}

// Discovery diagnostics re-exports.

// RoundReport summarises one discovery round.
type RoundReport = discovery.RoundReport

// Errors re-exported for callers.
var (
	ErrUnknownDevice  = library.ErrUnknownDevice
	ErrUnknownService = library.ErrUnknownService
	ErrRejected       = library.ErrRejected
	ErrNoRoute        = library.ErrNoRoute
)

// String helpers.

// FormatEntry renders one storage entry as a single line.
func FormatEntry(e Entry) string {
	best, ok := e.Best()
	if !ok {
		return fmt.Sprintf("%s %s (no route)", e.Info.Name, e.Info.Addr)
	}
	return fmt.Sprintf("%s %s %s", e.Info.Name, e.Info.Addr, best)
}
