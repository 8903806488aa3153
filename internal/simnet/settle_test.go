package simnet

import (
	"fmt"
	"runtime"
	"testing"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/geo"
)

// TestSettleWaitsForRelayTeardown is the S4 loss race in miniature. A
// relay's pump reads its server leg and closes its commuter leg once that
// read fails, as a bridge retires a pair. After the server leg breaks and
// the world settles, the commuter's next write must fail on every
// schedule: Settle returns only once the pump has woken, torn the pair
// down, and exited.
func TestSettleWaitsForRelayTeardown(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(0); seed < 200; seed++ {
				settleRelayTeardown(t, seed)
			}
		})
	}
}

func settleRelayTeardown(t *testing.T, seed int64) {
	t.Helper()
	clk := clock.NewManual()
	// Unlimited bandwidth: a bandwidth sleep would wait on a clock only
	// this goroutine advances.
	p := DefaultParams(device.TechBluetooth).Instant()
	p.Bandwidth = 0
	w := NewWorld(clk, seed, WithQualityNoise(0), WithParams(device.TechBluetooth, p))
	defer w.Close()
	commuter := addBT(t, w, "commuter", geo.Pt(0, 0))
	relay := addBT(t, w, "relay", geo.Pt(5, 0))
	server := addBT(t, w, "server", geo.Pt(10, 0))

	// dial opens a link from -> to and returns both ends.
	dial := func(from, to *Radio) (*Conn, *Conn) {
		t.Helper()
		l, err := to.Listen(1)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		near, err := from.Dial(to.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		far, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return near, far
	}
	commuterLeg, relayIn := dial(commuter, relay)
	relayOut, serverLeg := dial(relay, server)

	clock.Go(clk, func() {
		buf := make([]byte, 64)
		for {
			if _, err := relayOut.Read(buf); err != nil {
				_ = relayIn.Close()
				return
			}
		}
	})
	w.Settle() // the pump is parked on its read

	serverLeg.Break()
	w.Settle()
	if _, err := commuterLeg.Write([]byte("x")); err == nil {
		t.Fatalf("seed %d: write through a torn-down relay succeeded after Settle", seed)
	}
}
