package kernel

import (
	"testing"

	"asbestos/internal/label"
	"asbestos/internal/race"
)

// dropBalance snapshots the two bookkeeping identities every drop path
// must keep: DropStats sums to Drops, and every payload drawn for a
// message that is dropped or delivered-and-released goes back to the pool.
type dropBalance struct {
	pool0 PoolStats
}

func newDropBalance() dropBalance { return dropBalance{pool0: PayloadPoolStats()} }

func (b dropBalance) check(t *testing.T, s *System, wantDrops uint64) {
	t.Helper()
	var sum uint64
	for _, n := range s.DropStats() {
		sum += n
	}
	if s.Drops() != wantDrops || sum != wantDrops {
		t.Errorf("Drops() = %d, DropStats sums to %d, want %d (%v)", s.Drops(), sum, wantDrops, s.DropStats())
	}
	p := PayloadPoolStats()
	if drawn, returned := p.Drawn-b.pool0.Drawn, p.Returned-b.pool0.Returned; drawn != returned {
		t.Errorf("payload pool: %d drawn, %d returned", drawn, returned)
	}
}

// taintMsg is a send whose contamination the default receive label (2)
// refuses: it fails requirement 1 of Figure 4 at delivery.
func taintMsg(s *System) *SendOpts {
	return &SendOpts{Contaminate: Taint(label.L3, s.NewProcess("taint-source").NewHandle())}
}

func TestDropInvariantsCheckpoint(t *testing.T) {
	s := newSys()
	bal := newDropBalance()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")

	// Base-owned port, label check fails.
	client.Port(svc).Send([]byte("refused"), taintMsg(s))
	// Two event processes, each with a port of its own.
	client.Port(svc).Send([]byte("a"), nil)
	client.Port(svc).Send([]byte("b"), nil)
	d, epA, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	portA := w.Open(nil).Handle()
	w.SetPortLabel(portA, label.Empty(label.L3))
	w.Yield()
	d, epB, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	portB := w.Open(nil).Handle()
	w.SetPortLabel(portB, label.Empty(label.L3))
	w.Yield()
	bal.check(t, s, 1)

	// Event-process-owned port, label check fails.
	client.Port(portA).Send([]byte("refused"), taintMsg(s))
	// Port dissociated while its message is queued: the reap disowns
	// portA, so both queued messages to it die as dead-port drops.
	client.Port(portA).Send([]byte("orphan"), nil)
	// Owner event process gone while the port still names it.
	client.Port(portB).Send([]byte("stale"), nil)
	w.mu.Lock()
	delete(w.eps, epB.ID())
	w.mu.Unlock()
	if !w.EPReap(epA.ID()) {
		t.Fatal("EPReap refused a suspended event process")
	}
	client.Port(svc).Send([]byte("last"), nil)
	d, _, err = w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Data) != "last" {
		t.Fatalf("delivered %q, want the one deliverable message", d.Data)
	}
	d.Release()
	w.Yield()
	bal.check(t, s, 4)

	// The event-process-owned label failure, on its own.
	client.Port(svc).Send([]byte("c"), nil)
	d, _, _ = w.Checkpoint()
	d.Release()
	portC := w.Open(nil).Handle()
	w.SetPortLabel(portC, label.Empty(label.L3))
	w.Yield()
	client.Port(portC).Send([]byte("refused"), taintMsg(s))
	client.Port(svc).Send([]byte("last"), nil)
	d, _, _ = w.Checkpoint()
	d.Release()
	w.Yield()
	bal.check(t, s, 5)
	if got := s.DropStats()["worker"]; got != 2 {
		t.Errorf("label-check drops classed worker = %d, want 2 (%v)", got, s.DropStats())
	}
}

func TestDropInvariantsRecvAndExit(t *testing.T) {
	s := newSys()
	bal := newDropBalance()
	rx := s.NewProcess("rx")
	in := rx.Open(nil)
	in.SetLabel(label.Empty(label.L3))
	tx := s.NewProcess("tx")

	tx.Port(in.Handle()).Send([]byte("refused"), taintMsg(s))
	tx.Port(in.Handle()).Send([]byte("ok"), nil)
	d, err := in.TryRecv()
	if err != nil || d == nil || string(d.Data) != "ok" {
		t.Fatalf("TryRecv = %v, %v", d, err)
	}
	d.Release()
	bal.check(t, s, 1)

	// Dissociated while queued.
	tx.Port(in.Handle()).Send([]byte("orphan"), nil)
	if err := in.Dissociate(); err != nil {
		t.Fatal(err)
	}
	if d, _ := rx.TryRecv(); d != nil {
		t.Fatalf("dissociated port delivered %q", d.Data)
	}
	bal.check(t, s, 2)

	// Pending at exit.
	in2 := rx.Open(nil)
	in2.SetLabel(label.Empty(label.L3))
	tx.Port(in2.Handle()).Send([]byte("never read"), nil)
	tx.Port(in2.Handle()).Send([]byte("never read"), nil)
	rx.Exit()
	bal.check(t, s, 4)
}

func TestAllocBudgetSendRecvRelease(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := newSys()
	rx := s.NewProcess("rx")
	in := rx.Open(nil)
	in.SetLabel(label.Empty(label.L3))
	out := s.NewProcess("tx").Port(in.Handle())
	msg := make([]byte, 512)
	delivered := 0
	roundTrip := func() {
		out.Send(msg, nil)
		if d, _ := in.TryRecv(); d != nil {
			delivered++
			d.Release()
		}
	}
	roundTrip() // fill the pools
	if delivered != 1 {
		t.Fatal("round trip delivered nothing")
	}
	// One allocation: the Delivery itself. The message node and the
	// payload buffer, header included, come back from their pools.
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs > 1 {
		t.Errorf("Send → Recv → Release allocates %.1f times per round trip, want ≤ 1", allocs)
	}
	if delivered != 202 {
		t.Errorf("%d of 202 round trips delivered", delivered)
	}
}
