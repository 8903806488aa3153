package library

import (
	"sync"

	"peerhood/internal/clock"
	"peerhood/internal/device"
	"peerhood/internal/plugin"
	"peerhood/internal/record"
)

// The session-continuity layer: a VirtualConnection whose identity (ConnID +
// negotiated token) is decoupled from the bearer address, with the byte
// stream framed as sequence-numbered records (internal/record). The sender buffers
// the un-acked tail in a bounded SendWindow; the receiver delivers in order
// and deduplicates by sequence; after a handover the tail is retransmitted
// over the new route (PH_RESUME), so the application sees zero byte loss and
// no duplicates where the legacy path tears the stream.
//
// Concurrency contract: all window and buffer state lives under ct.mu. At
// most one goroutine pulls records from the transport at a time (ct.reading,
// handed off via ct.cond); everyone else waits on the condition variable and
// re-examines state after each pulled record. All wire writes — data frames,
// acks, probes, retransmission sweeps — serialise on ct.wlock. Lock order is
// wlock → (vc.mu | ct.mu), one at a time; ct.cond is only ever waited on
// under ct.mu without wlock held, so a blocked writer can never starve the
// puller's ack path.
const (
	// contAckEvery is the receiver's ack cadence: one cumulative ack per
	// this many delivered frames (dups, gaps, and probes ack immediately).
	contAckEvery = 4
	// contMaxFrame caps one frame's payload; larger writes are chunked.
	contMaxFrame = 16 << 10
	// contRecvBufMax bounds the receiver's undelivered buffer: past it the
	// cadence ack is withheld (released by the application's next Read), so
	// a fast sender stalls on its window instead of growing our memory.
	contRecvBufMax = 256 << 10
)

// continuityState is the per-connection continuity window state.
type continuityState struct {
	token uint64
	rr    *record.RecordReader

	mu      sync.Mutex
	cond    *sync.Cond     // signalled after every pulled record and on close
	parked  clock.WaitList // cond waiters, for the manual clock's Settle
	send    *record.SendWindow
	recv    *record.RecvWindow
	pending []byte // delivered in-order, not yet read by the application
	pendOff int
	reading bool // a puller currently owns the transport's read side

	sinceAck int
	ackHold  bool
	// retransUntil suppresses the duplicate-ack fast retransmit for stall
	// values below it. A retransmitted tail whose frames were already
	// delivered comes back as one immediate ack per duplicate drop; without
	// the high-water mark each of those echoes would be mistaken for fresh
	// loss and re-trigger the sweep — a self-sustaining duplicate storm.
	retransUntil uint32

	syncedGen int  // transport generation the last sweep covered
	forceSync bool // next sweep runs regardless of generation

	retransFrames int64
	retransBytes  int64
	resumes       int64

	wlock sync.Mutex // serialises all wire writes for this connection
}

// ContinuityStats is a snapshot of a connection's continuity counters, for
// experiments and diagnostics.
type ContinuityStats struct {
	// Sender side.
	RetransFrames int64
	RetransBytes  int64
	SendBuffered  int
	SendHighWater int
	SendWindowMax int
	AckedSeq      uint32
	// Receiver side.
	DeliveredBytes int64
	DupFrames      int64
	DupBytes       int64
	GapFrames      int64
	GapBytes       int64
	// Resumes is how many times the session survived a bearer substitution
	// with its window intact.
	Resumes int64
}

// enableContinuity installs the continuity layer. It must run before any
// data flows on the connection (right after the hello/ack exchange).
func (vc *VirtualConnection) enableContinuity(token uint64, windowBytes int) {
	ct := &continuityState{
		token: token,
		send:  record.NewSendWindow(windowBytes),
		recv:  record.NewRecvWindow(),
	}
	ct.cond = sync.NewCond(&ct.mu)
	ct.parked = clock.NewWaitList(vc.lib.Clock())
	ct.rr = record.NewRecordReader(contReader{vc})
	vc.cont = ct
}

// ContinuityEnabled reports whether this connection negotiated the
// continuity window.
func (vc *VirtualConnection) ContinuityEnabled() bool { return vc.cont != nil }

// ContinuityToken returns the session token (zero without continuity).
func (vc *VirtualConnection) ContinuityToken() uint64 {
	if vc.cont == nil {
		return 0
	}
	return vc.cont.token
}

// Resumes returns how many zero-loss bearer substitutions this connection
// went through (always zero for legacy connections — those Restart or Swap).
func (vc *VirtualConnection) Resumes() int {
	if vc.cont == nil {
		return 0
	}
	ct := vc.cont
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return int(ct.resumes)
}

// ContinuityStats snapshots the window counters.
func (vc *VirtualConnection) ContinuityStats() ContinuityStats {
	if vc.cont == nil {
		return ContinuityStats{}
	}
	ct := vc.cont
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ContinuityStats{
		RetransFrames:  ct.retransFrames,
		RetransBytes:   ct.retransBytes,
		SendBuffered:   ct.send.Buffered(),
		SendHighWater:  ct.send.HighWater(),
		SendWindowMax:  ct.send.Max(),
		AckedSeq:       ct.send.Acked(),
		DeliveredBytes: ct.recv.Delivered,
		DupFrames:      ct.recv.DupFrames,
		DupBytes:       ct.recv.DupBytes,
		GapFrames:      ct.recv.GapFrames,
		GapBytes:       ct.recv.GapBytes,
		Resumes:        ct.resumes,
	}
}

// ContinuityRecvSeq returns the receiver's cumulative position — what a
// PH_RESUME advertises so the peer can trim its window and replay only the
// un-received tail. Zero without continuity.
func (vc *VirtualConnection) ContinuityRecvSeq() uint32 {
	if vc.cont == nil {
		return 0
	}
	return vc.contRecvSeq()
}

// contRecvSeq returns the receiver's cumulative position — what a PH_RESUME
// or PH_RESUME_ACK advertises.
func (vc *VirtualConnection) contRecvSeq() uint32 {
	ct := vc.cont
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.recv.AckSeq()
}

// contReader adapts the virtual connection's swap-aware retry loop to the
// record reader: a transport failure waits for the handover to substitute a
// bearer, runs the retransmission sweep for our own un-acked tail, and
// resumes reading on the new transport. Torn bytes from the old bearer are
// the record reader's CRC-resync problem; duplicated frames are the receive
// window's.
type contReader struct{ vc *VirtualConnection }

func (r contReader) Read(p []byte) (int, error) {
	vc := r.vc
	for {
		c, gen, genCh, err := vc.current()
		if err != nil {
			return 0, err
		}
		n, rerr := c.Read(p)
		if rerr == nil || n > 0 {
			return n, rerr
		}
		if !vc.shouldAwaitSwap() {
			return 0, rerr
		}
		if !vc.awaitSwap(gen, genCh) {
			return 0, rerr
		}
		vc.contSync()
	}
}

// contRead implements Read for continuity connections: drain the in-order
// pending buffer, pulling records from the transport when it runs dry.
func (vc *VirtualConnection) contRead(p []byte) (int, error) {
	ct := vc.cont
	for {
		select {
		case <-vc.closeCh:
			return 0, ErrClosed
		default:
		}
		ct.mu.Lock()
		if ct.pendOff < len(ct.pending) {
			n := copy(p, ct.pending[ct.pendOff:])
			ct.pendOff += n
			if ct.pendOff == len(ct.pending) {
				ct.pending = ct.pending[:0]
				ct.pendOff = 0
			}
			var ackSeq uint32
			release := ct.ackHold && len(ct.pending)-ct.pendOff <= contRecvBufMax
			if release {
				ct.ackHold = false
				ct.sinceAck = 0
				ackSeq = ct.recv.AckSeq()
			}
			ct.mu.Unlock()
			if release {
				vc.contWriteAck(ackSeq)
			}
			return n, nil
		}
		if err := vc.contPullStep(); err != nil {
			return 0, err
		}
	}
}

// broadcastLocked wakes every goroutine waiting on ct.cond. Callers hold
// ct.mu.
func (ct *continuityState) broadcastLocked() {
	ct.parked.WakeAll()
	ct.cond.Broadcast()
}

// contPullStep advances the shared pull state by one record: become the
// puller if the slot is free, otherwise wait for the active puller's next
// record. Callers hold ct.mu on entry; it is released on return.
func (vc *VirtualConnection) contPullStep() error {
	ct := vc.cont
	if ct.reading {
		ct.parked.Park()
		ct.cond.Wait()
		ct.mu.Unlock()
		return nil
	}
	ct.reading = true
	ct.mu.Unlock()
	err := vc.contPullOnce()
	ct.mu.Lock()
	ct.reading = false
	ct.broadcastLocked()
	ct.mu.Unlock()
	return err
}

// contPullOnce reads one record from the transport and dispatches it. The
// caller owns the pull slot.
func (vc *VirtualConnection) contPullOnce() error {
	ct := vc.cont
	rec, err := ct.rr.Next()
	if err != nil {
		return err
	}
	if rec.TaskID != vc.id {
		return nil // another session's record leaked through a relay; drop
	}
	var wantAck, wantSync bool
	ct.mu.Lock()
	switch rec.Kind {
	case record.KindWindowData:
		switch ct.recv.Accept(rec.Seq, len(rec.Payload)) {
		case record.RecvDeliver:
			ct.pending = append(ct.pending, rec.Payload...)
			ct.sinceAck++
			if ct.sinceAck >= contAckEvery {
				if len(ct.pending)-ct.pendOff <= contRecvBufMax {
					ct.sinceAck = 0
					wantAck = true
				} else {
					ct.ackHold = true
				}
			}
		case record.RecvDuplicate:
			// Re-ack immediately so the sender learns its retransmit (or a
			// double delivery across the swap) already landed.
			vc.lib.contDupFrames.Inc()
			vc.lib.contDupBytes.Add(uint64(len(rec.Payload)))
			wantAck = true
		case record.RecvGap:
			// Re-ack immediately: the duplicate cumulative ack tells the
			// sender where to retransmit from.
			wantAck = true
		}
	case record.KindWindowAck:
		if v, perr := record.ParseU32Payload(rec.Payload); perr == nil {
			prev := ct.send.Acked()
			if ct.send.Ack(v) == 0 && v == prev && !ct.send.Empty() && v >= ct.retransUntil {
				// Duplicate cumulative ack with data outstanding: the peer
				// saw a gap. Fast-retransmit the tail once; acks echoing
				// below the retransmitted high mark are the duplicate drops
				// of that sweep coming back, not new loss.
				ct.retransUntil = ct.send.NextSeq()
				ct.forceSync = true
				wantSync = true
			}
		}
	case record.KindWindowProbe:
		ct.sinceAck = 0
		ct.ackHold = false
		wantAck = true
	}
	ackSeq := ct.recv.AckSeq()
	ct.broadcastLocked()
	ct.mu.Unlock()
	if wantAck {
		// Ack write failures are swallowed: a lost ack is repaired by the
		// next probe or duplicate data frame.
		vc.contWriteAck(ackSeq)
	}
	if wantSync {
		vc.contSync()
	}
	return nil
}

// contWrite implements Write for continuity connections: chunk, buffer each
// chunk in the send window (waiting for space), and put it on the wire. A
// chunk counts as written once buffered — even if the wire write fails the
// window holds it and the post-handover sweep retransmits it, which is
// exactly the partial-write guarantee the legacy path cannot give.
func (vc *VirtualConnection) contWrite(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > contMaxFrame {
			chunk = p[:contMaxFrame]
		}
		if err := vc.contSendFrame(chunk); err != nil {
			return total, err
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// contSendFrame buffers one chunk and writes its frame.
func (vc *VirtualConnection) contSendFrame(chunk []byte) error {
	ct := vc.cont
	ct.mu.Lock()
	for !ct.send.Fits(len(chunk)) {
		select {
		case <-vc.closeCh:
			ct.mu.Unlock()
			return ErrClosed
		default:
		}
		// Window full: space only opens when an ack is pulled.
		if err := vc.contPullStep(); err != nil {
			return err
		}
		ct.mu.Lock()
	}
	f := ct.send.Append(chunk)
	// Encode under ct.mu: once the lock drops, an ack can recycle the
	// frame's payload buffer at any moment.
	wire, err := record.AppendRecord(nil, record.Record{
		TaskID: vc.id, Seq: f.Seq, Kind: record.KindWindowData, Payload: f.Payload,
	})
	ct.mu.Unlock()
	if err != nil {
		return err
	}

	ct.wlock.Lock()
	defer ct.wlock.Unlock()
	swept, err := vc.contSweepLocked()
	if err != nil || swept {
		// The sweep just replayed the whole un-acked tail — our frame
		// included — on the fresh transport; a wire error leaves the frame
		// safely buffered for the next sweep.
		return nil
	}
	c, _, _, err := vc.current()
	if err != nil {
		return err
	}
	// A failed frame write is not a failed Write: the window holds the
	// bytes and the handover sweep will replay them.
	_, _ = c.Write(wire)
	return nil
}

// contSync runs the retransmission sweep if the transport generation moved
// past the last swept one (or a force is pending).
func (vc *VirtualConnection) contSync() {
	ct := vc.cont
	ct.wlock.Lock()
	defer ct.wlock.Unlock()
	_, _ = vc.contSweepLocked()
}

// contSweepLocked retransmits the un-acked tail when the transport is newer
// than the last sweep (or forceSync is set). Caller holds ct.wlock. Returns
// whether a sweep ran.
func (vc *VirtualConnection) contSweepLocked() (bool, error) {
	ct := vc.cont
	c, gen, _, err := vc.current()
	if err != nil {
		return false, err
	}
	ct.mu.Lock()
	if gen == ct.syncedGen && !ct.forceSync {
		ct.mu.Unlock()
		return false, nil
	}
	ct.syncedGen = gen
	ct.forceSync = false
	var wire []byte
	frames, bytes := 0, 0
	ct.send.Unacked(func(f record.SendFrame) {
		b, aerr := record.AppendRecord(wire, record.Record{
			TaskID: vc.id, Seq: f.Seq, Kind: record.KindWindowData, Payload: f.Payload,
		})
		if aerr != nil {
			return
		}
		wire = b
		frames++
		bytes += len(f.Payload)
	})
	ct.retransFrames += int64(frames)
	ct.retransBytes += int64(bytes)
	ct.mu.Unlock()
	if frames > 0 {
		vc.lib.contRetransFrames.Add(uint64(frames))
		vc.lib.contRetransBytes.Add(uint64(bytes))
		if _, werr := c.Write(wire); werr != nil {
			// The tail stays buffered; the next swap sweeps again.
			ct.mu.Lock()
			ct.forceSync = true
			ct.mu.Unlock()
			return true, nil
		}
	}
	return true, nil
}

// contWriteAck sends a cumulative ack for seq.
func (vc *VirtualConnection) contWriteAck(seq uint32) {
	vc.contWriteControl(record.KindWindowAck, seq)
}

// contWriteProbe solicits an immediate ack from the peer.
func (vc *VirtualConnection) contWriteProbe() {
	ct := vc.cont
	ct.mu.Lock()
	seq := ct.send.NextSeq() - 1
	ct.mu.Unlock()
	vc.contWriteControl(record.KindWindowProbe, seq)
}

func (vc *VirtualConnection) contWriteControl(kind record.RecordKind, seq uint32) {
	ct := vc.cont
	ct.wlock.Lock()
	defer ct.wlock.Unlock()
	c, _, _, err := vc.current()
	if err != nil {
		return
	}
	_ = record.WriteRecord(c, record.Record{
		TaskID: vc.id, Seq: seq, Kind: kind, Payload: record.U32Payload(seq),
	})
}

// Flush blocks until every buffered frame is acknowledged by the peer —
// the drain handshake an application (or experiment) uses to prove zero
// in-flight loss. It probes for acks and retransmits on stall, so it
// converges even across silent frame loss.
func (vc *VirtualConnection) Flush() error {
	ct := vc.cont
	if ct == nil {
		return nil
	}
	var lastAcked uint32
	first := true
	for {
		select {
		case <-vc.closeCh:
			return ErrClosed
		default:
		}
		ct.mu.Lock()
		if ct.send.Empty() {
			ct.mu.Unlock()
			return nil
		}
		acked := ct.send.Acked()
		stalled := !first && acked == lastAcked
		lastAcked, first = acked, false
		if stalled {
			ct.forceSync = true
		}
		ct.mu.Unlock()
		if stalled {
			vc.contSync()
		}
		vc.contWriteProbe()
		ct.mu.Lock()
		if err := vc.contPullStep(); err != nil {
			return err
		}
	}
}

// ResumeSwap substitutes the transport like SwapRoute but keeps the
// continuity session: the peer's advertised receive position trims the send
// window, and the remaining un-acked tail is retransmitted on the new
// transport immediately.
func (vc *VirtualConnection) ResumeSwap(newConn plugin.Conn, bridge device.Addr, peerRecvSeq uint32) {
	vc.resumePrep(peerRecvSeq)
	vc.SwapRoute(newConn, bridge)
	vc.contSync()
}

// ResumeSwapTo is ResumeSwap with the logical target switched to a sibling
// interface (vertical handover).
func (vc *VirtualConnection) ResumeSwapTo(newConn plugin.Conn, target, bridge device.Addr, peerRecvSeq uint32) {
	vc.resumePrep(peerRecvSeq)
	vc.SwapRouteTo(newConn, target, bridge)
	vc.contSync()
}

func (vc *VirtualConnection) resumePrep(peerRecvSeq uint32) {
	ct := vc.cont
	ct.mu.Lock()
	ct.send.Ack(peerRecvSeq)
	ct.resumes++
	// Force the post-swap sweep even if a racing path already observed the
	// new generation, and arm the duplicate-ack suppressor over the whole
	// replayed tail: frames the peer received after advertising its resume
	// position come back as duplicate-drop acks, not new loss.
	ct.forceSync = true
	ct.retransUntil = ct.send.NextSeq()
	ct.mu.Unlock()
	vc.lib.contResumes.Inc()
}

// MarkRestartContinuity records a lossy service reconnection of a
// continuity session: the stream restarts from scratch against the new
// provider under a freshly negotiated token. Whatever the old provider had
// not acknowledged is gone — exactly the legacy restart semantics, which is
// why experiments count Restarts separately from Resumes.
func (vc *VirtualConnection) MarkRestartContinuity(newConn plugin.Conn, target device.Addr, bridge device.Addr, token uint64) {
	ct := vc.cont
	ct.mu.Lock()
	ct.token = token
	ct.send = record.NewSendWindow(ct.send.Max())
	ct.recv = record.NewRecvWindow()
	ct.pending = nil
	ct.pendOff = 0
	ct.sinceAck = 0
	ct.ackHold = false
	ct.retransUntil = 0
	ct.forceSync = false
	ct.mu.Unlock()
	vc.MarkRestart(newConn, target, bridge)
}
