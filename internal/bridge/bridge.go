// Package bridge implements the thesis' interconnection system (ch. 4):
// the hidden bridge service every daemon runs. A PH_BRIDGE hello carries a
// destination address and service; the bridge selects the next hop from
// its own DeviceStorage (§4.2 — "the suitable prototype and route
// selection of next connection will always be carried out by the bridge
// server"), extends the chain, propagates the acknowledgement back, and
// then relays bytes in both directions without interpreting them.
//
// The thesis stores each relay's two connections as an even/odd pair in
// one list; here each relay is an explicit pair value with two pump
// goroutines. Connection caps and the load-based advertised-quality
// penalty implement §4's bottleneck-avoidance suggestion.
package bridge

import (
	"fmt"
	"sync"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/library"
	"peerhood/internal/phproto"
	"peerhood/internal/plugin"
)

// Defaults.
const (
	// DefaultMaxPairs bounds simultaneous relayed connections ("the
	// maximum connection number is adjusted by the device owner", §4).
	DefaultMaxPairs = 16
	// DefaultPenaltyScale is the advertised-quality penalty at full load.
	DefaultPenaltyScale = 50
)

// Config parametrises a bridge Service.
type Config struct {
	Library *library.Library
	// MaxPairs caps simultaneous relays; DefaultMaxPairs if zero.
	MaxPairs int
	// PenaltyScale scales the load penalty; DefaultPenaltyScale if zero.
	PenaltyScale int
	// Disabled turns the bridge off (mobile devices may switch bridging
	// off to save battery, §4 — at the cost of network visibility).
	Disabled bool
}

// Stats counts bridge activity.
type Stats struct {
	ChainsRequested   int64
	ChainsEstablished int64
	ChainsFailed      int64
	BytesRelayed      int64
}

// Service is one node's bridge service.
type Service struct {
	lib          *library.Library
	maxPairs     int
	penaltyScale int

	mu     sync.Mutex
	pairs  map[int64]*pair
	nextID int64
	stats  Stats
	closed bool
	wg     sync.WaitGroup
}

type pair struct {
	id  int64
	in  plugin.Conn // towards the connection originator
	out plugin.Conn // towards the destination (or next bridge)
}

// Attach creates the bridge service and installs it as the library's
// PH_BRIDGE handler. Per §4.2 the service is hidden: it has no entry in
// the registered service list.
func Attach(cfg Config) (*Service, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("bridge: Library is required")
	}
	if cfg.MaxPairs == 0 {
		cfg.MaxPairs = DefaultMaxPairs
	}
	if cfg.PenaltyScale == 0 {
		cfg.PenaltyScale = DefaultPenaltyScale
	}
	s := &Service{
		lib:          cfg.Library,
		maxPairs:     cfg.MaxPairs,
		penaltyScale: cfg.PenaltyScale,
		pairs:        make(map[int64]*pair),
	}
	if !cfg.Disabled {
		cfg.Library.SetBridgeHandler(s.handle)
	}
	return s, nil
}

// ActivePairs returns the number of live relays.
func (s *Service) ActivePairs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pairs)
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LoadPenalty returns the advertised-quality penalty for the current load:
// 0 when idle, PenaltyScale when saturated (§4's "extra connection
// number / maximum connection number percentage ... proportionally the
// link quality parameter is decreased"). Wire it into the daemon's
// LoadPenalty hook.
func (s *Service) LoadPenalty() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxPairs == 0 {
		return 0
	}
	return s.penaltyScale * len(s.pairs) / s.maxPairs
}

// Close tears down every relay and stops accepting new chains.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ps := make([]*pair, 0, len(s.pairs))
	for _, p := range s.pairs {
		ps = append(ps, p)
	}
	s.mu.Unlock()

	for _, p := range ps {
		_ = p.in.Close()
		_ = p.out.Close()
	}
	s.wg.Wait()
	return nil
}

// handle processes one PH_BRIDGE hello (fig 4.4's BridgeConnection).
func (s *Service) handle(conn plugin.Conn, hello *phproto.HelloBridge, via plugin.Plugin) {
	s.mu.Lock()
	s.stats.ChainsRequested++
	full := len(s.pairs) >= s.maxPairs
	closed := s.closed
	s.mu.Unlock()

	// A resume-flagged chain is acknowledged end to end with PH_RESUME_ACK
	// (it carries the endpoint's receive position); everything else keeps
	// the plain PH_OK/PH_FAIL of fig 4.3.
	resume := hello.Flags&phproto.HelloFlagResume != 0
	reject := func(reason string) {
		s.mu.Lock()
		s.stats.ChainsFailed++
		s.mu.Unlock()
		if resume {
			_ = phproto.Write(conn, &phproto.ResumeAck{OK: false, Reason: reason})
		} else {
			_ = phproto.Write(conn, &phproto.Ack{OK: false, Reason: reason})
		}
		_ = conn.Close()
	}

	switch {
	case closed:
		reject("bridge closed")
		return
	case full:
		// "whenever the maximum is reached, it is notified back to the
		// request device" (§4).
		reject("bridge at maximum connections")
		return
	case hello.TTL == 0:
		reject("bridge ttl exceeded")
		return
	}

	store := s.lib.Daemon().Storage()
	entry, ok := store.Lookup(hello.Dest)
	if !ok {
		reject("bridge: unknown destination")
		return
	}

	// Candidate next hops: never send the chain back to where it came
	// from; TTL bounds longer loops.
	prevHop := conn.RemoteAddr()
	var client *device.Info
	if hello.HasClient {
		c := hello.Client.Clone()
		client = &c
	}

	var out plugin.Conn
	var lastReason string
	var peerRecv uint32
	for _, route := range entry.Routes {
		if route.Bridge == prevHop {
			continue
		}
		if !route.Direct() && store.IsSelf(route.Bridge) {
			continue
		}
		if !route.Direct() && hello.TTL <= 1 {
			// Extending through another bridge needs TTL budget; a
			// decremented-to-zero TTL must not be mistaken for
			// ConnectVia's "use the default" sentinel.
			lastReason = "bridge ttl exhausted"
			continue
		}
		via := library.Via{
			Route:       route,
			Target:      hello.Dest,
			ServiceName: hello.ServiceName,
			ServicePort: hello.ServicePort,
			ConnID:      hello.ConnID,
			Reconnect:   hello.Reconnect,
			Client:      client,
			TTL:         hello.TTL - 1,
		}
		// Forward the continuity extension hop by hop: the session token
		// (and for a resume, the requester's receive position) must reach
		// the endpoint unchanged.
		switch {
		case resume:
			via.Resume = &library.ResumeInfo{Token: hello.Token, RecvSeq: hello.RecvSeq}
		case hello.Flags&phproto.HelloFlagContinuity != 0:
			via.Continuity = true
			via.Token = hello.Token
		}
		next, err := s.lib.ConnectVia(via)
		if err != nil {
			lastReason = err.Error()
			continue
		}
		if resume {
			peerRecv = via.Resume.PeerRecvSeq
		}
		out = next
		break
	}
	if out == nil {
		if lastReason == "" {
			lastReason = "bridge: no usable route to destination"
		}
		reject(lastReason)
		return
	}

	// Chain is up. Register the pair before acknowledging: once the
	// requester reads the ack it may count on the relay, so ActivePairs
	// and LoadPenalty must already include it. A failed ack write rolls
	// the registration back.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		_ = out.Close()
		return
	}
	s.nextID++
	p := &pair{id: s.nextID, in: conn, out: out}
	s.pairs[p.id] = p
	s.mu.Unlock()

	// Propagate the acknowledgement to the requester (fig 4.3's
	// connection acknowledgement). A resume relays the endpoint's
	// PH_RESUME_ACK position instead.
	var ackMsg phproto.Message = &phproto.Ack{OK: true}
	if resume {
		ackMsg = &phproto.ResumeAck{OK: true, RecvSeq: peerRecv}
	}
	if err := phproto.Write(conn, ackMsg); err != nil {
		s.mu.Lock()
		delete(s.pairs, p.id)
		s.stats.ChainsFailed++
		s.mu.Unlock()
		_ = conn.Close()
		_ = out.Close()
		return
	}

	s.mu.Lock()
	if s.closed {
		// Close ran after the registration and has closed both legs.
		s.mu.Unlock()
		return
	}
	s.stats.ChainsEstablished++
	// Add while still holding s.mu with closed re-checked above: once
	// Close has set closed under this lock it may already be past
	// wg.Wait, and an Add after that point races the Wait and leaks the
	// pumps.
	s.wg.Add(2)
	s.mu.Unlock()

	// Two pumps per pair (the even/odd directions of fig 4.4). The first
	// failure in either direction tears the pair down.
	clk := s.lib.Clock()
	clock.Go(clk, func() { s.pump(p, p.in, p.out) })
	clock.Go(clk, func() { s.pump(p, p.out, p.in) })
}

// pump relays bytes from src to dst until either side dies. "After the
// connection establishment, bridge won't interpret the traffic" (§4.2).
func (s *Service) pump(p *pair, src, dst plugin.Conn) {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
			s.mu.Lock()
			s.stats.BytesRelayed += int64(n)
			s.mu.Unlock()
		}
		if err != nil {
			break
		}
	}
	s.retire(p)
}

// retire closes both ends of a pair and removes it from the list.
func (s *Service) retire(p *pair) {
	s.mu.Lock()
	_, live := s.pairs[p.id]
	delete(s.pairs, p.id)
	s.mu.Unlock()
	if live {
		_ = p.in.Close()
		_ = p.out.Close()
	}
}
