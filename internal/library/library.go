// Package library implements the PeerHood library (§2.2.2): the
// application-facing half of a node. It offers connection establishment
// (Connect, fig 2.5), the Engine that listens for incoming connections and
// dispatches them by hello command (PH_NEW / PH_BRIDGE / PH_RECONNECT,
// §4.1), neighbourhood queries (GetDeviceList / GetServiceList), and the
// virtual connections whose transports can be swapped underneath an
// application during handover (§5.2).
package library

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"peerhood/internal/clock"
	"peerhood/internal/daemon"
	"peerhood/internal/device"
	"peerhood/internal/events"
	"peerhood/internal/phproto"
	"peerhood/internal/plugin"
	"peerhood/internal/rng"
	"peerhood/internal/storage"
	"peerhood/internal/telemetry"
)

// Library errors.
var (
	// ErrUnknownDevice reports a Connect to a device absent from the
	// DeviceStorage.
	ErrUnknownDevice = errors.New("library: unknown device")
	// ErrUnknownService reports a Connect to a service the target does not
	// advertise.
	ErrUnknownService = errors.New("library: unknown service")
	// ErrRejected reports a PH_FAIL acknowledgement from the peer or a
	// bridge on the chain.
	ErrRejected = errors.New("library: connection rejected")
	// ErrNoRoute reports that no stored route reaches the target.
	ErrNoRoute = errors.New("library: no route to device")
	// ErrClosed reports use of a closed library or connection.
	ErrClosed = errors.New("library: closed")
)

// Defaults.
const (
	// DefaultBridgeTTL bounds bridge chains (hop budget of PH_BRIDGE).
	DefaultBridgeTTL = 8
	// DefaultDialRetries is how many times transient connection faults are
	// retried; §4.3 concludes "the connection attempt repetition in the
	// Bridge service design would be necessary".
	DefaultDialRetries = 2
	// DefaultSwapWait is how long a virtual connection's Read/Write blocks
	// waiting for a handover to replace a failed transport before
	// propagating the error.
	DefaultSwapWait = 30 * time.Second
)

// Config parametrises a Library.
type Config struct {
	Daemon *daemon.Daemon
	// BridgeTTL, DialRetries, SwapWait default to the package constants.
	BridgeTTL   uint8
	DialRetries int
	SwapWait    time.Duration
	// Seed makes connection-ID generation deterministic; 0 derives one
	// from the daemon name.
	Seed int64
	// DisableContinuity makes the engine behave like a pre-continuity
	// peer: extended hellos are dropped without an acknowledgement (a real
	// legacy decoder rejects their trailing bytes and hangs up) and
	// PH_RESUME is an unknown command. Interop tests and staged rollouts
	// use it; callers fall back to today's lossy behaviour.
	DisableContinuity bool
}

// ConnectionMeta describes an incoming connection to a service handler.
type ConnectionMeta struct {
	// ConnID is the logical connection identifier, stable across
	// handovers.
	ConnID uint64
	// Service is the local service the peer connected to.
	Service device.ServiceInfo
	// Remote is the transport peer — the actual dialer or the last bridge
	// of a chain.
	Remote device.Addr
	// HasClient marks Client as meaningful: the dialer sent its own
	// descriptor so the service can reconnect to it later (§5.3).
	HasClient bool
	Client    device.Info
}

// Handler consumes an accepted service connection. Handlers run on their
// own goroutine; they own vc and must Close it.
type Handler func(vc *VirtualConnection, meta ConnectionMeta)

// BridgeHandler consumes a PH_BRIDGE hello. The bridge service registers
// one; it takes ownership of conn, including acknowledgement.
type BridgeHandler func(conn plugin.Conn, hello *phproto.HelloBridge, via plugin.Plugin)

// Library is one device's PeerHood library instance. The thesis keeps
// library and engine as singletons per device (§4.1); here that scope is
// one Library value per daemon.
type Library struct {
	d   *daemon.Daemon
	clk clock.Clock
	cfg Config
	src *rng.Source

	mu            sync.Mutex
	engines       []plugin.Listener
	handlers      map[uint16]handlerEntry
	bridgeHandler BridgeHandler
	vcs           map[uint64]*VirtualConnection
	eventStreams  map[plugin.Conn]*events.Subscription
	traceStreams  map[plugin.Conn]*telemetry.TraceSub
	started       bool
	stopped       bool
	wg            sync.WaitGroup

	// Continuity telemetry, resolved once (nil-safe on a daemon without a
	// registry).
	contRetransFrames *telemetry.Counter
	contRetransBytes  *telemetry.Counter
	contDupFrames     *telemetry.Counter
	contDupBytes      *telemetry.Counter
	contResumes       *telemetry.Counter
}

type handlerEntry struct {
	svc device.ServiceInfo
	h   Handler
}

// New returns a Library bound to a daemon.
func New(cfg Config) (*Library, error) {
	if cfg.Daemon == nil {
		return nil, errors.New("library: Daemon is required")
	}
	if cfg.BridgeTTL == 0 {
		cfg.BridgeTTL = DefaultBridgeTTL
	}
	switch {
	case cfg.DialRetries == 0:
		cfg.DialRetries = DefaultDialRetries
	case cfg.DialRetries < 0:
		// Negative disables retries entirely (the pre-thesis behaviour the
		// §4.3 experiment measures).
		cfg.DialRetries = 0
	}
	if cfg.SwapWait == 0 {
		cfg.SwapWait = DefaultSwapWait
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.Daemon.Name()))
		seed = int64(h.Sum64())
	}
	reg := cfg.Daemon.Registry()
	return &Library{
		d:            cfg.Daemon,
		clk:          cfg.Daemon.Clock(),
		cfg:          cfg,
		src:          rng.New(seed),
		handlers:     make(map[uint16]handlerEntry),
		vcs:          make(map[uint64]*VirtualConnection),
		eventStreams: make(map[plugin.Conn]*events.Subscription),
		traceStreams: make(map[plugin.Conn]*telemetry.TraceSub),

		contRetransFrames: reg.Counter("peerhood_continuity_retransmit_frames_total"),
		contRetransBytes:  reg.Counter("peerhood_continuity_retransmit_bytes_total"),
		contDupFrames:     reg.Counter("peerhood_continuity_dup_frames_total"),
		contDupBytes:      reg.Counter("peerhood_continuity_dup_bytes_total"),
		contResumes:       reg.Counter("peerhood_continuity_resumes_total"),
	}, nil
}

// Daemon returns the underlying daemon.
func (l *Library) Daemon() *daemon.Daemon { return l.d }

// Clock returns the library's clock.
func (l *Library) Clock() clock.Clock { return l.clk }

// Start binds the engine port on every plugin and begins dispatching
// incoming connections.
func (l *Library) Start() error {
	l.mu.Lock()
	if l.started {
		l.mu.Unlock()
		return errors.New("library: already started")
	}
	l.started = true
	l.mu.Unlock()

	for _, p := range l.d.Plugins() {
		ln, err := p.Listen(device.PortEngine)
		if err != nil {
			l.Stop()
			return fmt.Errorf("library: binding engine port on %v: %w", p.Tech(), err)
		}
		l.mu.Lock()
		l.engines = append(l.engines, ln)
		l.mu.Unlock()
		l.wg.Add(1)
		clock.Go(l.clk, func() { l.acceptLoop(p, ln) })
	}
	return nil
}

// Stop closes the engine listeners and every open virtual connection, then
// waits for library goroutines (including service handlers) to exit.
func (l *Library) Stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	engines := l.engines
	vcs := make([]*VirtualConnection, 0, len(l.vcs))
	for _, vc := range l.vcs {
		vcs = append(vcs, vc)
	}
	streams := make(map[plugin.Conn]*events.Subscription, len(l.eventStreams))
	for c, s := range l.eventStreams {
		streams[c] = s
	}
	traces := make(map[plugin.Conn]*telemetry.TraceSub, len(l.traceStreams))
	for c, s := range l.traceStreams {
		traces[c] = s
	}
	l.mu.Unlock()

	for _, e := range engines {
		_ = e.Close()
	}
	for _, vc := range vcs {
		_ = vc.Close()
	}
	for c, s := range streams {
		// Closing the subscription ends the streaming goroutine's range
		// loop; closing the transport unblocks any in-flight write.
		s.Close()
		_ = c.Close()
	}
	for c, s := range traces {
		l.d.Tracer().Unsubscribe(s)
		_ = c.Close()
	}
	l.wg.Wait()
}

// RegisterService registers a service with the daemon and installs its
// connection handler (the callback path of §2.2.2's Engine).
func (l *Library) RegisterService(name, attr string, h Handler) (device.ServiceInfo, error) {
	if h == nil {
		return device.ServiceInfo{}, errors.New("library: nil handler")
	}
	svc, err := l.d.RegisterService(name, attr)
	if err != nil {
		return device.ServiceInfo{}, err
	}
	l.mu.Lock()
	l.handlers[svc.Port] = handlerEntry{svc: svc, h: h}
	l.mu.Unlock()
	return svc, nil
}

// UnregisterService removes a service and its handler.
func (l *Library) UnregisterService(name string) {
	svcs := l.d.Services()
	l.d.UnregisterService(name)
	l.mu.Lock()
	for _, s := range svcs {
		if s.Name == name {
			delete(l.handlers, s.Port)
		}
	}
	l.mu.Unlock()
}

// SetBridgeHandler installs the PH_BRIDGE dispatcher (the bridge service).
func (l *Library) SetBridgeHandler(h BridgeHandler) {
	l.mu.Lock()
	l.bridgeHandler = h
	l.mu.Unlock()
}

// GetDeviceList returns the daemon's device table (the thesis' library
// call of the same name).
func (l *Library) GetDeviceList() []storage.Entry {
	return l.d.Storage().Snapshot()
}

// GetServiceList returns the known providers of a named service.
func (l *Library) GetServiceList(name string) []storage.ServiceProvider {
	return l.d.Storage().FindService(name)
}

// ConnectOption tweaks a Connect call.
type ConnectOption func(*connectOptions)

type connectOptions struct {
	sendClientInfo bool
	preferTech     device.Tech
	continuity     bool
	windowBytes    int
}

// WithClientInfo makes Connect send the local device descriptor in the
// hello, enabling the server to reconnect and deliver results after a
// disconnection (§5.3 method 2).
func WithClientInfo() ConnectOption {
	return func(o *connectOptions) { o.sendClientInfo = true }
}

// WithContinuity negotiates the session-continuity window on the
// connection: the byte stream is framed with sequence numbers, the un-acked
// tail is buffered and replayed across handovers (PH_RESUME), and the far
// end deduplicates — zero byte loss, no duplicates, bearer changes
// invisible to the application. A peer that cannot decode the extended
// hello hangs up, and Connect falls back to a flagless attempt on the same
// route: legacy peers keep today's lossy behaviour.
func WithContinuity() ConnectOption {
	return func(o *connectOptions) { o.continuity = true }
}

// WithContinuityWindow is WithContinuity with an explicit send-window bound
// in bytes (<= 0 takes record.DefaultWindowBytes). The bound is the
// connection's retransmission memory cost; a writer blocks once it is full
// of un-acked data.
func WithContinuityWindow(bytes int) ConnectOption {
	return func(o *connectOptions) {
		o.continuity = true
		o.windowBytes = bytes
	}
}

// WithTech states a technology preference for the connection: when the
// target device's identity has a stored sibling interface of technology t
// that advertises the service and is reachable, Connect dials that
// interface instead. A preference, not a requirement — without such a
// sibling the original target is used.
func WithTech(t device.Tech) ConnectOption {
	return func(o *connectOptions) { o.preferTech = t }
}

// Connect establishes a virtual connection to a named service on the
// target device, using the best stored route — directly when the target is
// in coverage, through a bridge chain otherwise (fig 4.1). Remaining
// candidate routes are tried in order if the best one fails.
func (l *Library) Connect(target device.Addr, service string, opts ...ConnectOption) (*VirtualConnection, error) {
	var o connectOptions
	for _, opt := range opts {
		opt(&o)
	}

	entry, ok := l.d.Storage().Lookup(target)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownDevice, target)
	}
	if o.preferTech != 0 && target.Tech != o.preferTech {
		// Identity-aware retarget: the same device on the preferred bearer.
		for _, sib := range l.d.Storage().Siblings(target) {
			if sib.Info.Addr.Tech != o.preferTech || len(sib.Routes) == 0 {
				continue
			}
			if _, ok := sib.Info.FindService(service); !ok {
				continue
			}
			entry, target = sib, sib.Info.Addr
			break
		}
	}
	svc, ok := entry.Info.FindService(service)
	if !ok {
		return nil, fmt.Errorf("%w: %q on %v", ErrUnknownService, service, target)
	}
	if len(entry.Routes) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, target)
	}

	var client *device.Info
	if o.sendClientInfo {
		if info, ok := l.d.InfoFor(target.Tech); ok {
			client = &info
		}
	}

	connID := l.newConnID()
	var token uint64
	if o.continuity {
		token = l.NewContinuityToken()
	}
	var lastErr error
	for _, route := range entry.Routes {
		if o.continuity {
			raw, err := l.ConnectVia(Via{
				Route:       route,
				Target:      target,
				ServiceName: svc.Name,
				ServicePort: svc.Port,
				ConnID:      connID,
				Client:      client,
				Continuity:  true,
				Token:       token,
			})
			if err == nil {
				vc := newVirtualConnection(l, raw, connID, target, svc, route.Bridge)
				vc.enableContinuity(token, o.windowBytes)
				l.register(vc)
				return vc, nil
			}
			lastErr = err
			if errors.Is(err, ErrRejected) && route.Direct() {
				// An explicit PH_FAIL on a direct route means the peer
				// decoded the extended hello and refused the service; a
				// flagless retry cannot change that verdict. Through a
				// bridge the PH_FAIL may only mean the downstream leg choked
				// on the extension, so bridged routes still get the retry.
				continue
			}
			// Hang-up without an acknowledgement: a legacy peer (or bridge)
			// choking on the extended hello. Retry the same route flagless —
			// today's lossy behaviour.
		}
		raw, err := l.ConnectVia(Via{
			Route:       route,
			Target:      target,
			ServiceName: svc.Name,
			ServicePort: svc.Port,
			ConnID:      connID,
			Client:      client,
		})
		if err != nil {
			lastErr = err
			continue
		}
		vc := newVirtualConnection(l, raw, connID, target, svc, route.Bridge)
		l.register(vc)
		return vc, nil
	}
	return nil, lastErr
}

// NewContinuityToken draws a fresh session-continuity token from the
// library's deterministic source. The handover thread uses it when a lossy
// service reconnection needs to renegotiate a continuity session.
func (l *Library) NewContinuityToken() uint64 {
	for {
		if t := uint64(l.src.Int63()); t != 0 {
			return t
		}
	}
}

// Via describes one low-level connection attempt along a specific route.
type Via struct {
	Route       storage.Route
	Target      device.Addr
	ServiceName string
	ServicePort uint16
	ConnID      uint64
	// Reconnect makes the final hop deliver PH_RECONNECT instead of
	// PH_NEW, re-attaching to an existing logical connection (§5.2.1).
	Reconnect bool
	// Client, if non-nil, is sent in the hello so the far end can dial
	// back later (§5.3 method 2).
	Client *device.Info
	// TTL bounds the bridge chain; 0 takes the library default. Bridges
	// pass the decremented TTL of the hello they are extending.
	TTL uint8
	// Continuity asks the far end to enable the session-continuity window;
	// Token is the session secret sent with the PH_NEW (and forwarded hop
	// by hop through bridges).
	Continuity bool
	Token      uint64
	// Resume, when non-nil, makes the final hop deliver PH_RESUME instead
	// of PH_NEW/PH_RECONNECT: re-attach to connection ConnID with the
	// stated proof and receive position. On success Resume.PeerRecvSeq is
	// filled from the endpoint's PH_RESUME_ACK.
	Resume *ResumeInfo
}

// ResumeInfo carries a PH_RESUME's identity proof and receive position, and
// returns the endpoint's position.
type ResumeInfo struct {
	// Token proves the caller originated the continuity session.
	Token uint64
	// RecvSeq is the caller's cumulative receive position.
	RecvSeq uint32
	// PeerRecvSeq is an out-parameter: the endpoint's cumulative receive
	// position, from which the caller replays its un-acked tail.
	PeerRecvSeq uint32
}

// ConnectVia performs the low-level connection establishment along one
// route: dial the first hop's engine port (with fault retries), send the
// appropriate hello (PH_NEW, PH_RECONNECT, or PH_BRIDGE carrying the final
// destination, fig 4.3), and wait for the chain-propagated
// acknowledgement. It returns the raw transport on success. The handover
// thread uses it with Reconnect to build replacement transports (§5.2.1),
// and the bridge service uses it to extend chains hop by hop.
func (l *Library) ConnectVia(v Via) (plugin.Conn, error) {
	ttl := v.TTL
	if ttl == 0 {
		ttl = l.cfg.BridgeTTL
	}

	firstHop := v.Target
	var hello phproto.Message
	switch {
	case v.Route.Direct() && v.Resume != nil:
		hello = &phproto.HelloResume{ConnID: v.ConnID, Token: v.Resume.Token, RecvSeq: v.Resume.RecvSeq}
	case v.Route.Direct() && v.Reconnect:
		hello = &phproto.HelloReconnect{ConnID: v.ConnID}
	case v.Route.Direct():
		m := &phproto.HelloNew{ServicePort: v.ServicePort, ServiceName: v.ServiceName, ConnID: v.ConnID}
		if v.Client != nil {
			m.HasClient = true
			m.Client = v.Client.Clone()
		}
		if v.Continuity {
			m.Flags = phproto.HelloFlagContinuity
			m.Token = v.Token
		}
		hello = m
	default:
		firstHop = v.Route.Bridge
		m := &phproto.HelloBridge{
			Dest:        v.Target,
			ServiceName: v.ServiceName,
			ServicePort: v.ServicePort,
			ConnID:      v.ConnID,
			TTL:         ttl,
			Reconnect:   v.Reconnect,
		}
		if v.Client != nil {
			m.HasClient = true
			m.Client = v.Client.Clone()
		}
		switch {
		case v.Resume != nil:
			m.Flags = phproto.HelloFlagResume
			m.Token = v.Resume.Token
			m.RecvSeq = v.Resume.RecvSeq
		case v.Continuity:
			m.Flags = phproto.HelloFlagContinuity
			m.Token = v.Token
		}
		hello = m
	}

	// The dial goes out on the first hop's radio, which need not share the
	// target's technology: a WLAN hotspot can bridge towards a peer's GPRS
	// interface. Selecting the plugin by target tech (the pre-identity
	// behaviour) made every cross-technology route undialable.
	p, ok := l.d.PluginFor(firstHop.Tech)
	if !ok {
		return nil, fmt.Errorf("%w: no %v plugin", ErrNoRoute, firstHop.Tech)
	}
	raw, err := l.dialRetry(p, firstHop, device.PortEngine)
	if err != nil {
		return nil, err
	}
	if err := phproto.Write(raw, hello); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("library: sending hello: %w", err)
	}
	if v.Resume != nil {
		// A resume is acknowledged end to end with PH_RESUME_ACK so the
		// endpoint's receive position propagates back through any bridges.
		rack, err := phproto.ReadExpect[*phproto.ResumeAck](raw)
		if err != nil {
			_ = raw.Close()
			return nil, fmt.Errorf("library: awaiting resume acknowledgement: %w", err)
		}
		if !rack.OK {
			_ = raw.Close()
			return nil, fmt.Errorf("%w: %s", ErrRejected, rack.Reason)
		}
		v.Resume.PeerRecvSeq = rack.RecvSeq
		return raw, nil
	}
	ack, err := phproto.ReadExpect[*phproto.Ack](raw)
	if err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("library: awaiting acknowledgement: %w", err)
	}
	if !ack.OK {
		_ = raw.Close()
		return nil, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	return raw, nil
}

// dialRetry dials, retrying transient connection faults per configuration.
func (l *Library) dialRetry(p plugin.Plugin, to device.Addr, port uint16) (plugin.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= l.cfg.DialRetries; attempt++ {
		c, err := p.Dial(to, port)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !errors.Is(err, plugin.ErrConnectFault) {
			break
		}
	}
	return nil, lastErr
}

// acceptLoop dispatches incoming engine connections by hello command.
func (l *Library) acceptLoop(p plugin.Plugin, ln plugin.Listener) {
	defer l.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		l.wg.Add(1)
		clock.Go(l.clk, func() {
			defer l.wg.Done()
			l.handleIncoming(p, conn)
		})
	}
}

func (l *Library) handleIncoming(p plugin.Plugin, conn plugin.Conn) {
	msg, err := phproto.Read(conn)
	if err != nil {
		_ = conn.Close()
		return
	}
	switch m := msg.(type) {
	case *phproto.HelloNew:
		l.handleHelloNew(conn, m)
	case *phproto.HelloBridge:
		l.mu.Lock()
		bh := l.bridgeHandler
		l.mu.Unlock()
		if bh == nil {
			_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "no bridge service"})
			_ = conn.Close()
			return
		}
		bh(conn, m, p)
	case *phproto.HelloReconnect:
		l.handleReconnect(conn, m)
	case *phproto.HelloResume:
		if l.cfg.DisableContinuity {
			// A legacy engine does not know the command; it hangs up.
			_ = conn.Close()
			return
		}
		l.handleResume(conn, m)
	case *phproto.EventSubscribe:
		l.handleEventSubscribe(conn, m)
	case *phproto.TraceSubscribe:
		l.handleTraceSubscribe(conn, m)
	default:
		_ = conn.Close()
	}
}

// Events subscribes in-process to the daemon's neighbourhood event bus
// (the library half of the middleware's "push connectivity changes to the
// application" contract). A zero mask selects every event type.
func (l *Library) Events(mask events.Mask) *events.Subscription {
	return l.d.Bus().Subscribe(mask)
}

// handleEventSubscribe serves one EVENT_SUBSCRIBE stream: acknowledge,
// then forward matching bus events as EVENT frames until the subscriber
// hangs up or the library stops. It runs on the engine's per-connection
// goroutine.
//
// The stream consumes the bus in batch mode: a publish burst accumulates
// in the subscription's ring, and each NextBatch encodes the whole burst —
// through one reused Encoder into one reused wire buffer — and ships it
// with a single conn.Write. Per steady-state event that is zero
// allocations and a fraction of a syscall, where the channel-mode loop
// paid a channel handoff, a fresh frame buffer, and a write each.
func (l *Library) handleEventSubscribe(conn plugin.Conn, m *phproto.EventSubscribe) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "library stopped"})
		_ = conn.Close()
		return
	}
	sub := l.d.Bus().SubscribeBatch(events.Mask(m.Mask))
	l.eventStreams[conn] = sub
	l.mu.Unlock()

	defer func() {
		sub.Close()
		_ = conn.Close()
		l.mu.Lock()
		delete(l.eventStreams, conn)
		l.mu.Unlock()
	}()

	if err := phproto.Write(conn, &phproto.Ack{OK: true}); err != nil {
		return
	}
	var (
		enc    phproto.Encoder
		batch  []events.Event
		wire   []byte
		notice phproto.EventNotice
	)
	for {
		var ok bool
		batch, ok = sub.NextBatch(batch[:0])
		if !ok {
			return
		}
		wire = wire[:0]
		for _, e := range batch {
			notice = phproto.EventNotice{
				Seq:             e.Seq,
				UnixNanos:       e.Time.UnixNano(),
				Type:            uint8(e.Type),
				Addr:            e.Addr,
				Quality:         int32(e.Quality),
				TimeToThreshold: e.TimeToThreshold,
				Detail:          e.Detail,
			}
			if m.Flags&phproto.EventSubFlagSpans != 0 {
				// Only negotiated subscribers get the trailing span field;
				// a legacy decoder would reject the extra bytes.
				notice.Span = e.Span
			}
			frame, err := enc.Encode(&notice)
			if err != nil {
				return
			}
			wire = append(wire, frame...)
		}
		if _, err := conn.Write(wire); err != nil {
			return
		}
	}
}

// handleTraceSubscribe serves one TRACE_SUBSCRIBE stream: acknowledge,
// replay up to m.Tail already-finished spans from the tracer's ring, then
// forward live spans as TRACE_SPAN frames until the subscriber hangs up or
// the library stops. Like the event stream, delivery is lossy: a slow
// subscriber drops spans rather than stalling the daemon's hot paths.
func (l *Library) handleTraceSubscribe(conn plugin.Conn, m *phproto.TraceSubscribe) {
	tracer := l.d.Tracer()
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "library stopped"})
		_ = conn.Close()
		return
	}
	sub := tracer.Subscribe(0)
	l.traceStreams[conn] = sub
	l.mu.Unlock()

	defer func() {
		tracer.Unsubscribe(sub)
		_ = conn.Close()
		l.mu.Lock()
		delete(l.traceStreams, conn)
		l.mu.Unlock()
	}()

	if err := phproto.Write(conn, &phproto.Ack{OK: true}); err != nil {
		return
	}
	if m.Tail > 0 {
		tail := tracer.Spans()
		if len(tail) > int(m.Tail) {
			tail = tail[len(tail)-int(m.Tail):]
		}
		for _, sp := range tail {
			if err := phproto.Write(conn, traceSpanFrame(sp)); err != nil {
				return
			}
		}
	}
	for sp := range sub.C() {
		if err := phproto.Write(conn, traceSpanFrame(sp)); err != nil {
			return
		}
	}
}

func traceSpanFrame(sp telemetry.Span) *phproto.TraceSpan {
	return &phproto.TraceSpan{
		ID:             sp.ID,
		Parent:         sp.Parent,
		Name:           sp.Name,
		Addr:           sp.Addr,
		StartUnixNanos: sp.Start.UnixNano(),
		EndUnixNanos:   sp.End.UnixNano(),
		Detail:         sp.Detail,
	}
}

func (l *Library) handleHelloNew(conn plugin.Conn, m *phproto.HelloNew) {
	wantContinuity := m.Flags&phproto.HelloFlagContinuity != 0
	if wantContinuity && l.cfg.DisableContinuity {
		// Mimic a legacy engine faithfully: its decoder rejects the
		// extended hello's trailing bytes and hangs up without an ack,
		// which is the caller's signal to fall back flagless.
		_ = conn.Close()
		return
	}
	l.mu.Lock()
	entry, ok := l.handlers[m.ServicePort]
	if !ok && m.ServiceName != "" {
		for _, he := range l.handlers {
			if he.svc.Name == m.ServiceName {
				entry, ok = he, true
				break
			}
		}
	}
	stopped := l.stopped
	l.mu.Unlock()
	if !ok || stopped {
		_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "no such service"})
		_ = conn.Close()
		return
	}
	if err := phproto.Write(conn, &phproto.Ack{OK: true}); err != nil {
		_ = conn.Close()
		return
	}
	vc := newVirtualConnection(l, conn, m.ConnID, conn.RemoteAddr(), entry.svc, device.Addr{})
	if wantContinuity {
		// Enabled before the handler goroutine starts and before the
		// client (who is waiting on our ack) can send a first frame.
		vc.enableContinuity(m.Token, 0)
	}
	l.register(vc)
	meta := ConnectionMeta{
		ConnID:    m.ConnID,
		Service:   entry.svc,
		Remote:    conn.RemoteAddr(),
		HasClient: m.HasClient,
		Client:    m.Client,
	}
	l.wg.Add(1)
	clock.Go(l.clk, func() {
		defer l.wg.Done()
		entry.h(vc, meta)
	})
}

// handleReconnect re-attaches an incoming transport to the logical
// connection it names, substituting it under the application (§5.2.1's
// ChangeConnection step, server side).
func (l *Library) handleReconnect(conn plugin.Conn, m *phproto.HelloReconnect) {
	l.mu.Lock()
	vc, ok := l.vcs[m.ConnID]
	l.mu.Unlock()
	if !ok || vc.Closed() {
		_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "unknown connection"})
		_ = conn.Close()
		return
	}
	if vc.ContinuityEnabled() {
		// A plain reconnect would silently restart the windowed stream
		// mid-sequence; a continuity session must be re-attached with
		// PH_RESUME so both sides retransmit from known positions.
		_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: "resume required"})
		_ = conn.Close()
		return
	}
	if err := phproto.Write(conn, &phproto.Ack{OK: true}); err != nil {
		_ = conn.Close()
		return
	}
	vc.Swap(conn)
}

// handleResume re-attaches an incoming transport to a continuity session:
// validate the identity proof, answer with our receive position, then
// substitute the transport — the resume sweep retransmits our own un-acked
// tail on it, and the caller replays its side from the position we sent.
func (l *Library) handleResume(conn plugin.Conn, m *phproto.HelloResume) {
	l.mu.Lock()
	vc, ok := l.vcs[m.ConnID]
	l.mu.Unlock()
	reject := func(reason string) {
		_ = phproto.Write(conn, &phproto.ResumeAck{OK: false, Reason: reason})
		_ = conn.Close()
	}
	if !ok || vc.Closed() {
		reject("unknown connection")
		return
	}
	if !vc.ContinuityEnabled() {
		reject("continuity not negotiated")
		return
	}
	if vc.ContinuityToken() != m.Token {
		reject("bad session token")
		return
	}
	tracer := l.d.Tracer()
	sp := tracer.Begin("conn.resume", 0, conn.RemoteAddr().String())
	if err := phproto.Write(conn, &phproto.ResumeAck{OK: true, RecvSeq: vc.contRecvSeq()}); err != nil {
		_ = conn.Close()
		tracer.End(sp, "resume-ack write failed")
		return
	}
	// The ack precedes the swap, so our retransmitted tail always follows
	// it on the new transport — the caller reads the ack frame-aligned.
	vc.ResumeSwap(conn, device.Addr{}, m.RecvSeq)
	tracer.End(sp, fmt.Sprintf("peer-recv=%d", m.RecvSeq))
}

func (l *Library) register(vc *VirtualConnection) {
	l.mu.Lock()
	old := l.vcs[vc.ID()]
	l.vcs[vc.ID()] = vc
	l.mu.Unlock()
	if old != nil && old != vc {
		// A fresh connection claimed a logical ID already in use: the
		// displaced connection can never be reconnected to again, and
		// leaving it open would leak its handler (blocked forever waiting
		// for a swap that cannot come).
		_ = old.Close()
	}
}

// unregister removes vc from the reconnect table — only if it still owns
// its ID, so closing a connection that was displaced by a newer one does
// not tear the newer one's registration down.
func (l *Library) unregister(vc *VirtualConnection) {
	l.mu.Lock()
	if l.vcs[vc.id] == vc {
		delete(l.vcs, vc.id)
	}
	l.mu.Unlock()
}

// newConnID generates a locally unique logical connection ID.
func (l *Library) newConnID() uint64 {
	for {
		id := uint64(l.src.Int63())
		if id == 0 {
			continue
		}
		l.mu.Lock()
		_, dup := l.vcs[id]
		l.mu.Unlock()
		if !dup {
			return id
		}
	}
}

// SwapWait returns the configured handover wait used by virtual
// connections.
func (l *Library) SwapWait() time.Duration { return l.cfg.SwapWait }
