package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"peerhood"
	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/events"
	"peerhood/internal/library"
	"peerhood/internal/simnet"
)

// RunHotspot implements experiment S5, the hotspot archipelago: a
// dual-radio commuter walks a corridor covered end to end by a wide-area
// GPRS umbrella while short-range WLAN islands — the server's own access
// zone and standalone dual-radio hotspots that bridge WLAN traffic onto
// the umbrella — dot the route. The commuter streams to the server
// throughout; the bandwidth-first selection policy rides each island
// (vertical up-switch onto WLAN) and falls back to the umbrella between
// them (vertical down-switch onto GPRS), both through the ordinary
// PH_RECONNECT path.
//
// Four modes are compared: the two single-radio baselines (gprs-only never
// leaves the umbrella; wlan-only island-hops and goes dark between
// islands) and the dual-radio commuter with the reactive and the
// predictive trigger. Reported per mode: handovers with the vertical
// up/down and predictive splits, sender-observed disruption, stream loss,
// below-threshold stream ticks, and bytes carried on the preferred (WLAN)
// bearer. Like S4 the run is manual-clock fully synchronous: a pure
// function of its seed, byte-identical across same-seed replays (pinned
// by TestHotspotExperimentDeterministic).
func RunHotspot(cfg Config) (Result, error) {
	t := newTable("MODE", "HANDOVERS", "VERT UP", "VERT DOWN", "PREDICTIVE",
		"DISRUPTION", "LOW-Q TICKS", "SENT", "LOST", "RESUMED", "DROPPED B", "DUP B",
		"WLAN BYTES", "WLAN SHARE")
	modes := []hotspotMode{
		{name: "gprs-only", techs: []peerhood.Tech{peerhood.GPRS}},
		{name: "wlan-only", techs: []peerhood.Tech{peerhood.WLAN}},
		{name: "dual/reactive", techs: []peerhood.Tech{peerhood.WLAN, peerhood.GPRS}},
		{name: "dual/predictive", techs: []peerhood.Tech{peerhood.WLAN, peerhood.GPRS}, predictive: true},
		{name: "dual/predictive+cont", techs: []peerhood.Tech{peerhood.WLAN, peerhood.GPRS}, predictive: true, continuity: true},
	}
	stats := make(map[string]hotspotStats, len(modes))
	for _, m := range modes {
		st, err := hotspotTrial(cfg, cfg.Seed, m)
		if err != nil {
			return Result{}, fmt.Errorf("mode %s: %w", m.name, err)
		}
		stats[m.name] = st
		dropped, dup := "-", "-"
		if m.continuity {
			dropped = fmt.Sprintf("%d", st.contDropped)
			dup = fmt.Sprintf("%d", st.contDupBytes)
		}
		t.add(m.name,
			fmt.Sprintf("%d", st.handovers),
			fmt.Sprintf("%d", st.verticalUp),
			fmt.Sprintf("%d", st.verticalDown),
			fmt.Sprintf("%d", st.predictive),
			fmt.Sprintf("%.1fs", st.disruption.Seconds()),
			fmt.Sprintf("%d", st.lowTicks),
			fmt.Sprintf("%d", st.sent),
			fmt.Sprintf("%d", st.lost),
			fmt.Sprintf("%d", st.resumed),
			dropped,
			dup,
			fmt.Sprintf("%d", st.wlanBytes),
			fmt.Sprintf("%.0f%%", st.wlanShare()*100),
		)
		cfg.logf("S5 %s: handovers=%d up=%d down=%d disruption=%.1fs lost=%d/%d resumed=%d wlan=%.0f%%",
			m.name, st.handovers, st.verticalUp, st.verticalDown,
			st.disruption.Seconds(), st.lost, st.sent, st.resumed, st.wlanShare()*100)
	}

	dual, wlan, gprs := stats["dual/predictive"], stats["wlan-only"], stats["gprs-only"]
	notes := []string{
		"corridor: server (WLAN+GPRS) at x=0 under a 500 m GPRS umbrella; 15 m WLAN islands at the server and at dual-radio hotspots that bridge WLAN traffic onto the umbrella; commuter walks the corridor at 1.4 m/s streaming 64 B every 200 ms",
		"dual modes run the bandwidth-first policy: vertical up-switch onto each island as it comes in good-class reach, down-switch onto GPRS (predictively: before the 230 crossing) when the island edge approaches; per-tech hold stops edge flapping",
		fmt.Sprintf("vertical handover vs single-radio: disruption %.1fs dual/predictive vs %.1fs wlan-only (islands only) and %.1fs gprs-only (umbrella only, 0%% preferred-bearer bytes)",
			dual.disruption.Seconds(), wlan.disruption.Seconds(), gprs.disruption.Seconds()),
		fmt.Sprintf("predictive vs reactive on identical geometry: %d vs %d below-threshold stream ticks — prediction moves the down-switch ahead of the crossing, so the stream rides a good-class bearer essentially always",
			stats["dual/predictive"].lowTicks, stats["dual/reactive"].lowTicks),
		"same-seed replays are byte-identical (manual clock, single-goroutine drive); legacy peers without sibling advertisements interoperate via the stripped wire forms (TestHotspotLegacyInterop)",
		fmt.Sprintf("dual/predictive+cont adds the session-continuity window (PH_RESUME, 4 KiB send window): every vertical switch resumes instead of restarting — %d resumes, %d B dropped, %d B duplicated end to end, vs %d lost messages on the lossy dual/predictive row over the same walk",
			stats["dual/predictive+cont"].resumed, stats["dual/predictive+cont"].contDropped,
			stats["dual/predictive+cont"].contDupBytes, stats["dual/predictive"].lost),
		"dual/predictive telemetry registry (the series phctl stats serves): " + telemetryLine(dual.tm,
			`peerhood_handover_completed_total`,
			`peerhood_handover_vertical_total{dir="up"}`,
			`peerhood_handover_vertical_total{dir="down"}`,
			`peerhood_handover_reconnects_total`,
			`peerhood_discovery_fetches_total{kind="delta"}`),
	}
	return Result{Table: t.String(), Notes: notes}, nil
}

// ArchipelagoParams returns the S5 radio profile for t: a deterministic
// (instant, zero-bandwidth) variant of the calibrated defaults with a
// 500 m GPRS umbrella and hard-edged 15 m WLAN islands (EdgeQuality 225
// puts the 230 threshold at 12.5 m of the 15 m cell). phtest's multi-radio
// fixture applies the same profile, so unit-level multi-tech worlds and S5
// share one geometry.
func ArchipelagoParams(t device.Tech) simnet.TechParams {
	p := simnet.DefaultParams(t).Instant()
	p.Bandwidth = 0
	p.DiscoveryCycle = time.Second
	switch t {
	case device.TechWLAN:
		p.CoverageRadius = hotspotIslandRadius
		p.EdgeQuality = 225
	case device.TechGPRS:
		p.CoverageRadius = 500
	}
	return p
}

// hotspotMode is one S5 table row's configuration.
type hotspotMode struct {
	name       string
	techs      []peerhood.Tech
	predictive bool
	// continuity runs the stream over the session-continuity window
	// (WithContinuityWindow): handovers resume with PH_RESUME instead of
	// restarting, and the trial verifies zero loss end to end.
	continuity bool
}

type hotspotStats struct {
	handovers    int64
	verticalUp   int64
	verticalDown int64
	predictive   int64
	disruption   time.Duration
	lowTicks     int
	sent, lost   int
	wlanBytes    int64
	totalBytes   int64
	busVertical  int
	// Continuity-mode accounting: resumed counts PH_RESUME re-attachments;
	// contDropped is accepted-minus-delivered bytes after the final Flush
	// (the zero-loss claim) and contDupBytes is delivered-minus-accepted
	// (the no-duplicate-delivery claim) — both zero means exactly-once.
	// contStreamErrs counts receiver bytes whose content disagrees with the
	// sender's deterministic pattern (an ordering or corruption slip that a
	// balanced byte count could mask); contHighWater is the send window's
	// peak occupancy (the bounded-memory claim).
	resumed        int64
	contDropped    int64
	contDupBytes   int64
	contStreamErrs int64
	contHighWater  int
	// tm is the commuter's merged telemetry snapshot at trial end; the
	// vertical-handover table columns quote its registry series. spanTrace
	// is the commuter's rendered span log, byte-identical across same-seed
	// runs (pinned by TestHotspotTraceDeterministic).
	tm        map[string]float64
	spanTrace string
}

func (s hotspotStats) wlanShare() float64 {
	if s.totalBytes == 0 {
		return 0
	}
	return float64(s.wlanBytes) / float64(s.totalBytes)
}

// Corridor geometry. Hotspots sit far enough apart that their islands do
// not touch the server's or each other's: the inter-island gaps are where
// wlan-only goes dark and dual falls back to the umbrella.
const (
	hotspotIslandRadius = 15.0
	hotspotWalkFrom     = 1.0
	hotspotSpeed        = 1.4
)

func hotspotPositions(quick bool) []float64 {
	if quick {
		return []float64{45}
	}
	return []float64{45, 90}
}

func hotspotWalkTo(quick bool) float64 {
	if quick {
		return 70
	}
	return 115
}

// hotspotTrial runs one deterministic corridor traversal. Everything —
// discovery rounds, handover steps, stream writes — is driven
// synchronously from this goroutine between manual clock advances, so the
// trial is a pure function of (seed, mode).
func hotspotTrial(cfg Config, seed int64, mode hotspotMode) (hotspotStats, error) {
	const (
		tick     = 200 * time.Millisecond
		msgBytes = 64
	)

	clk := clock.NewManual()
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: seed, Clock: clk, Instant: true})
	defer w.Close()

	for _, tech := range []device.Tech{device.TechWLAN, device.TechGPRS} {
		p := ArchipelagoParams(tech)
		// Re-arm the two stochastic knobs that cost no simulated time (the
		// S4 convention): dial faults and inquiry misses draw from the
		// world's seeded rng in a fixed order, so different seeds see
		// different luck while the same seed replays exactly.
		p.FaultProb = 0.02
		p.ResponseProb = 0.98
		w.Sim().SetParams(tech, p)
	}

	server, err := w.NewNode(peerhood.NodeConfig{
		Name:  "server",
		Techs: []peerhood.Tech{peerhood.WLAN, peerhood.GPRS},
	})
	if err != nil {
		return hotspotStats{}, err
	}
	backbone := []*peerhood.Node{server}
	for i, x := range hotspotPositions(cfg.Quick) {
		h, err := w.NewNode(peerhood.NodeConfig{
			Name:     fmt.Sprintf("hotspot%d", i+1),
			Position: peerhood.Pt(x, 0),
			Techs:    []peerhood.Tech{peerhood.WLAN, peerhood.GPRS},
		})
		if err != nil {
			return hotspotStats{}, err
		}
		backbone = append(backbone, h)
	}
	// SwapWait -1: a write on a dead transport fails immediately instead of
	// blocking on a clock only this goroutine could advance; the failed
	// message is the corridor's loss and recovery is the handover thread's
	// job (the S4 convention).
	commuter, err := w.NewNode(peerhood.NodeConfig{
		Name: "commuter", Position: peerhood.Pt(hotspotWalkFrom, 0.5), Mobility: peerhood.Dynamic,
		Techs: mode.techs, SwapWait: -1, LinkWindow: 8, MaxMissedLoops: 8,
		HandoverPolicy: peerhood.PolicyBandwidthFirst,
	})
	if err != nil {
		return hotspotStats{}, err
	}

	// The sink keeps the server-side connection observable: the continuity
	// mode settles its zero-loss books against the receiver's own counters.
	// In that mode every stream byte also carries a position-derived pattern
	// (message k is 64 bytes of k%251), so the receiver detects reordering
	// or corruption that a balanced byte count would mask.
	srvConnCh := make(chan *peerhood.Connection, 4)
	var streamOff, streamErrs atomic.Int64
	if _, err := server.RegisterService("sink", "", func(c *peerhood.Connection, m peerhood.ConnectionMeta) {
		select {
		case srvConnCh <- c:
		default:
		}
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if mode.continuity {
				for _, got := range buf[:n] {
					off := streamOff.Add(1) - 1
					if got != byte(off/msgBytes%251) {
						streamErrs.Add(1)
					}
				}
			}
			if err != nil {
				return
			}
		}
	}); err != nil {
		return hotspotStats{}, err
	}

	w.RunDiscoveryRounds(3)
	start := clk.Now()

	// Every mode names the same logical peer; the bearer preference (and
	// the identity-aware retarget it triggers) picks the interface. The
	// single-radio modes can only ever resolve their own technology.
	target := server.Addr() // primary = WLAN
	var opts []library.ConnectOption
	switch {
	case len(mode.techs) == 1 && mode.techs[0] == peerhood.GPRS:
		a, _ := server.AddrFor(peerhood.GPRS)
		target = a
	case len(mode.techs) == 2:
		a, _ := server.AddrFor(peerhood.GPRS)
		target = a
		opts = append(opts, peerhood.WithTech(peerhood.WLAN))
	}
	if mode.continuity {
		// 4 KiB bounds the replay buffer to 64 stream messages — enough to
		// absorb any handover window on this corridor, small enough that the
		// bounded-memory claim is a real constraint.
		opts = append(opts, peerhood.WithContinuityWindow(4096))
	}
	conn, err := commuter.Connect(target, "sink", opts...)
	if err != nil {
		return hotspotStats{}, fmt.Errorf("initial connect: %w", err)
	}
	defer conn.Close()
	w.Settle()

	th, err := commuter.MonitorHandover(conn, peerhood.HandoverConfig{
		Interval:         tick,
		ManualSteps:      true, // stepped from the walk loop below
		MaxRouteAttempts: 6,
		MaxFailures:      3,
		Predictive:       mode.predictive,
		PredictHorizon:   5 * time.Second,
		PredictCooldown:  time.Second,
		TechHold:         10 * time.Second,
	})
	if err != nil {
		return hotspotStats{}, err
	}
	defer th.Stop()

	sub := commuter.Events(peerhood.MaskOf(peerhood.EventVerticalHandover))
	defer sub.Close()

	walkTo := hotspotWalkTo(cfg.Quick)
	commuter.SetModel(peerhood.Walk(peerhood.Pt(hotspotWalkFrom, 0.5), peerhood.Pt(walkTo, 0.5), hotspotSpeed))

	var st hotspotStats
	drain := func() {
		for {
			select {
			case e, ok := <-sub.C():
				if !ok {
					return
				}
				if e.Type == events.VerticalHandover {
					st.busVertical++
				}
			default:
				return
			}
		}
	}

	msg := make([]byte, msgBytes)
	msgIdx := 0
	walkDur := time.Duration((walkTo - hotspotWalkFrom) / hotspotSpeed * float64(time.Second))
	total := walkDur + 4*time.Second // drain ticks let recovery settle
	var outageStart time.Time
	inOutage := false
	ticks := int(total / tick)
	// Every step is settled before the next (the S4 convention): the
	// nodes' goroutines finish reacting to it, so the run replays
	// identically from the seed.
	for i := 0; i < ticks; i++ {
		clk.Advance(tick)
		w.Settle()
		w.CheckLinks()
		w.Settle()
		if i%5 == 0 { // commuter discovers every simulated second
			commuter.RunDiscoveryRound()
			w.Settle()
		}
		if i%10 == 0 { // the backbone refreshes every two seconds
			for _, n := range backbone {
				n.RunDiscoveryRound()
				w.Settle()
			}
		}
		if clk.Since(start) <= walkDur {
			st.sent++
			q := conn.Quality()
			if q > 0 && q < peerhood.QualityThreshold {
				st.lowTicks++
			}
			if mode.continuity {
				for j := range msg {
					msg[j] = byte(msgIdx % 251)
				}
			}
			_, werr := conn.Write(msg)
			w.Settle()
			if werr != nil {
				st.lost++
				if !inOutage {
					inOutage, outageStart = true, clk.Now()
				}
			} else {
				msgIdx++
				st.totalBytes += msgBytes
				if conn.RemoteAddr().Tech == peerhood.WLAN {
					st.wlanBytes += msgBytes
				}
				if inOutage {
					st.disruption += clk.Since(outageStart)
					inOutage = false
				}
			}
		}
		th.Step()
		w.Settle()
		drain()
	}
	// An outage still open when the stream stops is credited only up to the
	// end of the send window.
	if inOutage {
		st.disruption += start.Add(walkDur).Sub(outageStart)
	}
	drain()

	if mode.continuity {
		// Drain the send window over the surviving bearer, then settle the
		// zero-loss books against the receiver's counters: every byte Write
		// accepted must have been delivered exactly once.
		if err := conn.Flush(); err != nil {
			return hotspotStats{}, fmt.Errorf("final flush: %w", err)
		}
		srv := <-srvConnCh
		cst, sst := conn.ContinuityStats(), srv.ContinuityStats()
		if d := st.totalBytes - sst.DeliveredBytes; d > 0 {
			st.contDropped = d
		} else {
			st.contDupBytes = -d
		}
		st.contStreamErrs = streamErrs.Load()
		st.contHighWater = cst.SendHighWater
	}

	hs := th.Stats()
	st.handovers = hs.Handovers
	st.predictive = hs.PredictiveHandovers
	st.resumed = hs.Resumes
	// The vertical split comes from the commuter's telemetry registry —
	// the same `peerhood_handover_vertical_total{dir=...}` series phctl
	// stats serves — rather than the thread's private tally (the two are
	// incremented at the same switch site, so a drift is a bug).
	st.tm = telemetrySums(commuter.Daemon())
	st.verticalUp = int64(st.tm[`peerhood_handover_vertical_total{dir="up"}`])
	st.verticalDown = int64(st.tm[`peerhood_handover_vertical_total{dir="down"}`])
	st.spanTrace = spanLog(commuter.Daemon())
	return st, nil
}
