package bridge_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"peerhood/internal/bridge"
	"peerhood/internal/device"
	"peerhood/internal/geo"
	"peerhood/internal/library"
	"peerhood/internal/phtest"
	"peerhood/internal/storage"
)

// lineWorld builds a line topology A-B-...-Z with 8m spacing (10m radius:
// only adjacent nodes in coverage), echo service on the last node, bridges
// everywhere, and runs enough discovery for total awareness.
func lineWorld(t *testing.T, seed int64, n int) []*phtest.Node {
	t.Helper()
	w := phtest.InstantWorld(t, seed)
	nodes := make([]*phtest.Node, n)
	for i := 0; i < n; i++ {
		mob := device.Static
		if i == 0 {
			mob = device.Dynamic
		}
		nodes[i] = phtest.AddNode(t, w, fmt.Sprintf("n%d", i), geo.Pt(float64(i)*8, 0), mob)
		phtest.AttachBridge(t, nodes[i])
	}
	registerEcho(t, nodes[n-1])
	phtest.RunRounds(nodes, n)
	return nodes
}

func registerEcho(t *testing.T, n *phtest.Node) {
	t.Helper()
	if _, err := n.Lib.RegisterService("echo", "", func(vc *library.VirtualConnection, meta library.ConnectionMeta) {
		defer vc.Close()
		buf := make([]byte, 512)
		for {
			nr, err := vc.Read(buf)
			if err != nil {
				return
			}
			if _, err := vc.Write(buf[:nr]); err != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func echoOnce(t *testing.T, vc *library.VirtualConnection, msg string) {
	t.Helper()
	if _, err := vc.Write([]byte(msg)); err != nil {
		t.Fatalf("write %q: %v", msg, err)
	}
	buf := make([]byte, len(msg)+16)
	n, err := vc.Read(buf)
	if err != nil || string(buf[:n]) != msg {
		t.Fatalf("echo = %q, %v (want %q)", buf[:n], err, msg)
	}
}

// TestSingleBridgeChain reproduces fig 4.1/4.2's basic scenario: A reaches
// a server two coverage areas away through one bridge.
func TestSingleBridgeChain(t *testing.T) {
	nodes := lineWorld(t, 1, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// A knows C only via B.
	entry, ok := a.Daemon.Storage().Lookup(c.Addr())
	if !ok {
		t.Fatalf("A does not know C:\n%s", a.Daemon.Storage())
	}
	best, _ := entry.Best()
	if best.Jumps != 1 || best.Bridge != b.Addr() {
		t.Fatalf("route = %+v, want 1 jump via B", best)
	}

	vc, err := a.Lib.Connect(c.Addr(), "echo")
	if err != nil {
		t.Fatalf("bridged Connect: %v", err)
	}
	defer vc.Close()

	for i := 0; i < 5; i++ {
		echoOnce(t, vc, fmt.Sprintf("msg-%d", i))
	}
	if vc.Bridge() != b.Addr() {
		t.Fatalf("vc.Bridge() = %v, want B", vc.Bridge())
	}
	if b.Bridge.ActivePairs() != 1 {
		t.Fatalf("B active pairs = %d, want 1", b.Bridge.ActivePairs())
	}
	st := b.Bridge.Stats()
	if st.ChainsEstablished != 1 || st.BytesRelayed == 0 {
		t.Fatalf("bridge stats = %+v", st)
	}
}

// TestPairCountedWhenConnectReturns pins that a relay registers its pair
// before it acknowledges the chain: once the requester's Connect returns,
// ActivePairs and LoadPenalty already count the relay, before any byte
// has crossed it. A discovery fetch from the relay right after the
// connect therefore sees it loaded.
func TestPairCountedWhenConnectReturns(t *testing.T) {
	nodes := lineWorld(t, 1, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]

	vc, err := a.Lib.Connect(c.Addr(), "echo")
	if err != nil {
		t.Fatalf("bridged Connect: %v", err)
	}
	defer vc.Close()
	if vc.Bridge() != b.Addr() {
		t.Fatalf("vc.Bridge() = %v, want B", vc.Bridge())
	}
	if got := b.Bridge.ActivePairs(); got != 1 {
		t.Fatalf("B active pairs right after Connect = %d, want 1", got)
	}
	if b.Bridge.LoadPenalty() == 0 {
		t.Fatal("B advertises no load penalty for an acknowledged chain")
	}
}

// TestMultiHopChain reproduces fig 4.1's A-B-C-E chain: two bridges.
func TestMultiHopChain(t *testing.T) {
	nodes := lineWorld(t, 2, 5)
	a, far := nodes[0], nodes[4]

	entry, _ := a.Daemon.Storage().Lookup(far.Addr())
	best, _ := entry.Best()
	if best.Jumps != 3 {
		t.Fatalf("route jumps = %d, want 3", best.Jumps)
	}

	vc, err := a.Lib.Connect(far.Addr(), "echo")
	if err != nil {
		t.Fatalf("multi-hop Connect: %v", err)
	}
	defer vc.Close()
	echoOnce(t, vc, "through-three-bridges")

	// Every intermediate node relays exactly one pair.
	for i := 1; i <= 3; i++ {
		if got := nodes[i].Bridge.ActivePairs(); got != 1 {
			t.Fatalf("node %d active pairs = %d, want 1", i, got)
		}
	}
}

func TestChainTearsDownOnClientClose(t *testing.T) {
	nodes := lineWorld(t, 3, 4)
	a := nodes[0]
	vc, err := a.Lib.Connect(nodes[3].Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	echoOnce(t, vc, "hello")
	_ = vc.Close()

	// Relays drain and retire.
	deadline := time.After(2 * time.Second)
	for {
		total := nodes[1].Bridge.ActivePairs() + nodes[2].Bridge.ActivePairs()
		if total == 0 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("relay pairs never retired: %d", total)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestBridgeRejectsUnknownDestination(t *testing.T) {
	nodes := lineWorld(t, 4, 3)
	a, b := nodes[0], nodes[1]

	// Hand-craft a bridged connect towards a destination B cannot know.
	ghost := device.Addr{Tech: device.TechBluetooth, MAC: "no:such"}
	_, err := a.Lib.ConnectVia(library.Via{
		Route:       storage.Route{Jumps: 1, Bridge: b.Addr(), QualitySum: 240, QualityMin: 240},
		Target:      ghost,
		ServiceName: "echo",
		ServicePort: 10,
		ConnID:      42,
	})
	if !errors.Is(err, library.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestBridgeMaxPairsRejects(t *testing.T) {
	w := phtest.InstantWorld(t, 5)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Dynamic)
	b := phtest.AddNode(t, w, "b", geo.Pt(8, 0), device.Static)
	c := phtest.AddNode(t, w, "c", geo.Pt(16, 0), device.Static)
	// Bridge on B capped at 1 pair.
	bsvc, err := bridge.Attach(bridge.Config{Library: b.Lib, MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bsvc.Close() })
	b.Bridge = bsvc
	registerEcho(t, c)
	phtest.RunRounds([]*phtest.Node{a, b, c}, 3)

	vc1, err := a.Lib.Connect(c.Addr(), "echo")
	if err != nil {
		t.Fatalf("first chain: %v", err)
	}
	defer vc1.Close()
	echoOnce(t, vc1, "first")

	if _, err := a.Lib.Connect(c.Addr(), "echo"); !errors.Is(err, library.ErrRejected) {
		t.Fatalf("second chain err = %v, want ErrRejected (bridge at max)", err)
	}
	if got := bsvc.LoadPenalty(); got != bridge.DefaultPenaltyScale {
		t.Fatalf("LoadPenalty at saturation = %d, want %d", got, bridge.DefaultPenaltyScale)
	}
}

func TestDisabledBridgeRejectsChains(t *testing.T) {
	w := phtest.InstantWorld(t, 6)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Dynamic)
	b := phtest.AddNode(t, w, "b", geo.Pt(8, 0), device.Static)
	c := phtest.AddNode(t, w, "c", geo.Pt(16, 0), device.Static)
	if _, err := bridge.Attach(bridge.Config{Library: b.Lib, Disabled: true}); err != nil {
		t.Fatal(err)
	}
	registerEcho(t, c)
	phtest.RunRounds([]*phtest.Node{a, b, c}, 3)

	_, err := a.Lib.Connect(c.Addr(), "echo")
	if !errors.Is(err, library.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected (no bridge service)", err)
	}
}

func TestReconnectThroughBridge(t *testing.T) {
	// A connects to C directly, then re-attaches the same logical
	// connection through bridge B — the §5.2.1 routing-handover transport
	// path, exercised without the handover thread.
	w := phtest.InstantWorld(t, 7)
	a := phtest.AddNode(t, w, "a", geo.Pt(0, 0), device.Dynamic)
	b := phtest.AddNode(t, w, "b", geo.Pt(5, 3), device.Static)
	c := phtest.AddNode(t, w, "c", geo.Pt(8, 0), device.Static)
	phtest.AttachBridge(t, b)
	registerEcho(t, c)
	phtest.RunRounds([]*phtest.Node{a, b, c}, 3)

	vc, err := a.Lib.Connect(c.Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	echoOnce(t, vc, "direct")

	// Alternate route via B must exist in A's storage.
	alts := a.Daemon.Storage().AlternateRoutes(c.Addr(), device.Addr{})
	var viaB *int
	for i, r := range alts {
		if r.Bridge == b.Addr() {
			viaB = &i
			break
		}
	}
	if viaB == nil {
		t.Fatalf("no alternate via B:\n%s", a.Daemon.Storage())
	}

	raw, err := a.Lib.ConnectVia(library.Via{
		Route:       alts[*viaB],
		Target:      c.Addr(),
		ServiceName: "echo",
		ServicePort: vc.Service().Port,
		ConnID:      vc.ID(),
		Reconnect:   true,
	})
	if err != nil {
		t.Fatalf("bridged reconnect: %v", err)
	}
	vc.SwapRoute(raw, b.Addr())
	echoOnce(t, vc, "via-bridge")
	if vc.Bridge() != b.Addr() {
		t.Fatalf("vc.Bridge() = %v after swap", vc.Bridge())
	}
}

func TestBridgeCloseTearsDownRelays(t *testing.T) {
	nodes := lineWorld(t, 8, 3)
	a, b := nodes[0], nodes[1]
	vc, err := a.Lib.Connect(nodes[2].Addr(), "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	echoOnce(t, vc, "pre-close")

	if err := b.Bridge.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Bridge.ActivePairs() != 0 {
		t.Fatal("pairs survived Close")
	}
	// Traffic now fails (no handover thread attached).
	vc.SetSending(false) // fail fast instead of waiting for swap
	if _, err := vc.Write([]byte("post-close")); err == nil {
		// One write may still land in a buffer; the echo read must fail.
		buf := make([]byte, 16)
		if _, err := vc.Read(buf); err == nil {
			t.Fatal("relay still alive after bridge Close")
		}
	}
}
