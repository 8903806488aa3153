package experiments

import (
	"fmt"
	"time"

	"peerhood"
	"peerhood/internal/clock"
	"peerhood/internal/daemon"
	"peerhood/internal/device"
	"peerhood/internal/events"
	"peerhood/internal/faultplane"
	"peerhood/internal/geo"
	"peerhood/internal/simnet"
)

// RunBlackout implements experiment S4, the urban blackout: the S3
// commuter corridor replayed under scripted failure weather — an
// interference window (impairment quality penalty), two regional
// blackouts (one swallowing the commuter's own neighbourhood, one taking
// the server end dark), and a relay crash/restart (fresh storage epoch,
// forcing peers through the full-resync fallback). Unlike S3's scaled
// clock, S4 runs on a manual clock, stepped from one driver goroutine
// that settles the world after every step: the nodes' own goroutines
// (accept loops, info responders, service handlers, relay pumps) finish
// reacting to a step before the next one starts. A run is therefore a
// pure function of its seed: two invocations produce byte-identical
// metrics and fault traces — the reproducibility property the OMNeT++
// mobility literature argues simulator-level impairment models exist to
// provide.
//
// Reported per handover mode (reactive vs predictive): handovers and the
// predictive share, spurious handovers, sender-observed disruption time,
// stream messages sent/lost, the delta-vs-full neighbourhood sync split
// (full fetches spike after the epoch-changing restart), and event-bus
// delivery/drop counters.
func RunBlackout(cfg Config) (Result, error) {
	t := newTable("MODE", "HANDOVERS", "PREDICTIVE", "SPURIOUS", "DISRUPTION",
		"SENT", "LOST", "FULL SYNC", "DELTA SYNC", "BUS EV", "DEGRADING", "LINK LOST", "BUS DROP")
	var trials []blackoutStats
	for _, predictive := range []bool{false, true} {
		st, err := blackoutTrial(cfg, cfg.Seed, predictive)
		if err != nil {
			return Result{}, err
		}
		mode := "reactive"
		if predictive {
			mode = "predictive"
		}
		t.add(mode,
			fmt.Sprintf("%d", st.handovers),
			fmt.Sprintf("%d", st.predictive),
			fmt.Sprintf("%d", st.spurious),
			fmt.Sprintf("%.1fs", st.disruption.Seconds()),
			fmt.Sprintf("%d", st.sent),
			fmt.Sprintf("%d", st.lost),
			fmt.Sprintf("%d", st.fullFetches),
			fmt.Sprintf("%d", st.deltaFetches),
			fmt.Sprintf("%d", st.busEvents),
			fmt.Sprintf("%d", st.busDegrading),
			fmt.Sprintf("%d", st.busLinkLost),
			fmt.Sprintf("%d", st.busDropped),
		)
		cfg.logf("S4 %s: handovers=%d disruption=%.1fs lost=%d/%d full=%d delta=%d",
			mode, st.handovers, st.disruption.Seconds(), st.lost, st.sent, st.fullFetches, st.deltaFetches)
		trials = append(trials, st)
	}

	notes := []string{
		"manual-clock deterministic replay: same seed => byte-identical metrics and fault trace (asserted by TestBlackoutExperimentDeterministic)",
		"corridor: server at x=0, 6 relays every 3 m, commuter walks 1->22 m and back at 1.4 m/s streaming 64 B every 200 ms (sender-side loss accounting)",
		"script: t=4s interference on commuter<->server (quality -40) cleared at t=10s; t=8s blackout x in [5,13] for 5s (covers the commuter); t=16s crash relay5, t=21s restart with a fresh storage epoch; t=26s blackout x in [-1,6] for 3s (covers the server)",
		fmt.Sprintf("disruption %.1fs reactive vs %.1fs predictive: region-wide blackouts are trigger-independent (no route exists to re-route onto), so prediction buys handover headroom — %d of %d predictive-mode handovers fired proactively — not blackout immunity",
			trials[0].disruption.Seconds(), trials[1].disruption.Seconds(), trials[1].predictive, trials[1].handovers),
		fmt.Sprintf("full-sync fallbacks (%d reactive / %d predictive) combine the epoch-change recovery after relay5's restart, blackout-interrupted sync baselines, and loaded bridges' unsyncable epoch-0 snapshots",
			trials[0].fullFetches, trials[1].fullFetches),
		"storage MaxMissedLoops raised to 8 so a 5 s blackout ages tables without wiping them — recovery uses stale routes re-priced on first contact",
		fmt.Sprintf("sync split and span counts read from the telemetry registries (the series phctl stats serves): %d trace spans recorded in the predictive run, commuter span log byte-identical across same-seed replays (TestBlackoutTraceDeterministic)",
			trials[1].spanCount),
	}
	notes = append(notes, "fault trace (predictive run):")
	notes = append(notes, trials[1].trace...)
	return Result{Table: t.String(), Notes: notes}, nil
}

// blackoutNeededHandovers is the corridor's minimum handover count for the
// out-and-back walk: one per relay transition each way. Handovers beyond
// it count as spurious.
const blackoutNeededHandovers = 12

type blackoutStats struct {
	handovers    int64
	predictive   int64
	spurious     int64
	disruption   time.Duration
	sent, lost   int
	fullFetches  int
	deltaFetches int
	busEvents    int
	busDegrading int
	busLinkLost  int
	busDropped   int
	trace        []string
	// spanTrace is the commuter's rendered trace-span log — handover and
	// sync lifecycles with causal parent links — byte-identical across
	// same-seed runs (pinned by TestBlackoutTraceDeterministic).
	spanTrace string
	spanCount uint64
}

// blackoutTrial runs one deterministic corridor traversal under the S4
// fault script. Every step — clock advance, fault events, link check,
// discovery rounds, stream write, handover step — is driven from this
// goroutine, and the world settles after each one (World.Settle), so the
// node goroutines a step wakes have all parked again before the next
// step reads or changes the state. No component runs on its own timer.
func blackoutTrial(cfg Config, seed int64, predictive bool) (blackoutStats, error) {
	const (
		tick     = 200 * time.Millisecond
		msgBytes = 64
		walkOut  = 15 * time.Second // 21 m at 1.4 m/s
		total    = 36 * time.Second // out + back + recovery drain
	)

	clk := clock.NewManual()
	w := peerhood.NewWorld(peerhood.WorldConfig{Seed: seed, Clock: clk, Instant: true})
	defer w.Close()

	// S3's short-setup micro-cell profile with a hard edge, made fully
	// deterministic: zero latencies and faults (Instant), unlimited
	// bandwidth (a bandwidth sleep would deadlock the manual clock), and
	// EdgeQuality 225 so the 230 threshold bites at ~8.3 m of the 10 m
	// cell.
	p := simnet.DefaultParams(device.TechBluetooth).Instant()
	p.Bandwidth = 0
	p.EdgeQuality = 225
	p.DiscoveryCycle = time.Second
	// Re-arm the two stochastic knobs that cost no simulated time: dial
	// faults and inquiry misses. They draw from the world's seeded rng in
	// a fixed order (steps are settled one at a time), so different seeds
	// see different fault luck while the same seed replays exactly.
	p.FaultProb = 0.03
	p.ResponseProb = 0.97
	w.Sim().SetParams(device.TechBluetooth, p)

	mk := func(name string, at peerhood.Point) (*peerhood.Node, error) {
		return w.NewNode(peerhood.NodeConfig{Name: name, Position: at, MaxMissedLoops: 8})
	}
	server, err := mk("server", peerhood.Pt(0, 0))
	if err != nil {
		return blackoutStats{}, err
	}
	backbone := []*peerhood.Node{server}
	relays := make([]*peerhood.Node, 6)
	for i := range relays {
		relays[i], err = mk(fmt.Sprintf("relay%d", i+1), peerhood.Pt(3*float64(i+1), 0))
		if err != nil {
			return blackoutStats{}, err
		}
		backbone = append(backbone, relays[i])
	}
	// SwapWait -1 makes a write on a dead transport fail immediately
	// instead of blocking on the clock (the manual-clock driver is the
	// only goroutine that could advance it): the failed message is the
	// corridor's loss, and recovery is the handover thread's job.
	commuter, err := w.NewNode(peerhood.NodeConfig{
		Name: "commuter", Position: peerhood.Pt(1, 0.5), Mobility: peerhood.Dynamic,
		SwapWait: -1, LinkWindow: 8, MaxMissedLoops: 8,
	})
	if err != nil {
		return blackoutStats{}, err
	}

	if _, err := server.RegisterService("sink", "", func(c *peerhood.Connection, m peerhood.ConnectionMeta) {
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}); err != nil {
		return blackoutStats{}, err
	}

	w.RunDiscoveryRounds(3)

	conn, err := commuter.Connect(server.Addr(), "sink")
	if err != nil {
		return blackoutStats{}, fmt.Errorf("initial connect: %w", err)
	}
	defer conn.Close()
	w.Settle()

	th, err := commuter.MonitorHandover(conn, peerhood.HandoverConfig{
		Interval:         tick,
		ManualSteps:      true, // stepped from the walk loop below
		MaxRouteAttempts: 6,
		MaxFailures:      3,
		Predictive:       predictive,
		PredictHorizon:   5 * time.Second,
		PredictCooldown:  time.Second,
	})
	if err != nil {
		return blackoutStats{}, err
	}
	defer th.Stop()

	sub := commuter.Events(0)
	defer sub.Close()

	// The S4 failure weather. The interference impairment carries only a
	// quality penalty: silent frame loss on a pair that also carries
	// discovery and engine handshakes would hang their deadline-free
	// request/response reads (see the faultplane package comment), while
	// a quality sag drives exactly the monitoring/handover machinery the
	// experiment measures.
	run := w.Fault().Load(peerhood.FaultScript{Events: []peerhood.FaultEvent{
		{At: 4 * time.Second, Do: faultplane.Impair{
			From: "commuter", To: "server", Symmetric: true,
			Profile: peerhood.Impairment{QualityPenalty: 40},
		}},
		{At: 8 * time.Second, Do: faultplane.Blackout{
			Region:   peerhood.Rect{Min: geo.Pt(5, -2), Max: geo.Pt(13, 2)},
			Duration: 5 * time.Second,
		}},
		{At: 10 * time.Second, Do: faultplane.ClearImpair{From: "commuter", To: "server"}},
		{At: 16 * time.Second, Do: faultplane.Crash{Node: "relay5"}},
		{At: 21 * time.Second, Do: faultplane.Restart{Node: "relay5"}},
		{At: 26 * time.Second, Do: faultplane.Blackout{
			Region:   peerhood.Rect{Min: geo.Pt(-1, -2), Max: geo.Pt(6, 2)},
			Duration: 3 * time.Second,
		}},
	}})

	commuter.SetModel(peerhood.Walk(peerhood.Pt(1, 0.5), peerhood.Pt(22, 0.5), 1.4))

	var st blackoutStats
	counts := make(map[events.Type]int)
	drain := func() {
		for {
			select {
			case e, ok := <-sub.C():
				if !ok {
					return
				}
				counts[e.Type]++
			default:
				return
			}
		}
	}

	msg := make([]byte, msgBytes)
	start := clk.Now()
	walkEnd := start.Add(2 * walkOut)
	var outageStart time.Time
	inOutage := false
	ticks := int(total / tick)
	for i := 0; i < ticks; i++ {
		clk.Advance(tick)
		w.Settle()
		run.ApplyDue()
		w.Settle()
		w.CheckLinks()
		w.Settle()
		if clk.Since(start) == walkOut {
			commuter.SetModel(peerhood.Walk(peerhood.Pt(22, 0.5), peerhood.Pt(1, 0.5), 1.4))
		}
		if i%5 == 0 { // commuter discovers every simulated second
			commuter.Daemon().RunDiscoveryRound()
			w.Settle()
		}
		if i%10 == 0 { // the backbone refreshes every two seconds
			for _, n := range backbone {
				n.Daemon().RunDiscoveryRound()
				w.Settle()
			}
		}
		if walking := clk.Since(start) <= 2*walkOut; walking {
			st.sent++
			_, werr := conn.Write(msg)
			w.Settle()
			if werr != nil {
				st.lost++
				if !inOutage {
					inOutage, outageStart = true, clk.Now()
				}
			} else if inOutage {
				st.disruption += clk.Since(outageStart)
				inOutage = false
			}
		}
		th.Step()
		w.Settle()
		drain()
	}
	// An outage still open when the stream stops is credited only up to
	// the end of the send window: the drain ticks exist to let recovery
	// machinery settle, not to inflate the disruption metric.
	if inOutage {
		st.disruption += walkEnd.Sub(outageStart)
	}
	drain()

	hs := th.Stats()
	st.handovers = hs.Handovers
	st.predictive = hs.PredictiveHandovers
	if extra := hs.Handovers - blackoutNeededHandovers; extra > 0 {
		st.spurious = extra
	}
	for _, n := range counts {
		st.busEvents += n
	}
	st.busDegrading = counts[events.LinkDegrading]
	st.busLinkLost = counts[events.LinkLost]
	st.busDropped = sub.Dropped()
	st.trace = w.Fault().Trace()
	// The sync split is read from the fleet's telemetry registries — the
	// same `peerhood_discovery_fetches_total` series phctl stats exposes —
	// instead of a private tally. relay5's pre-crash fetches die with its
	// replaced daemon; its restart is what drives everyone ELSE full.
	fleet := make([]*daemon.Daemon, 0, len(backbone)+1)
	for _, n := range backbone {
		fleet = append(fleet, n.Daemon())
	}
	fleet = append(fleet, commuter.Daemon())
	tm := telemetrySums(fleet...)
	st.fullFetches = int(tm[`peerhood_discovery_fetches_total{kind="full"}`])
	st.deltaFetches = int(tm[`peerhood_discovery_fetches_total{kind="delta"}`])
	st.spanTrace = spanLog(commuter.Daemon())
	st.spanCount = spanTotal(fleet...)
	if err := run.Err(); err != nil {
		return blackoutStats{}, err
	}
	return st, nil
}
