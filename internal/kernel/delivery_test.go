package kernel

import (
	"testing"

	"asbestos/internal/label"
)

// deliverOne sends payload from tx to rx's port and receives it.
func deliverOne(t *testing.T, rx *Process, port *Port, tx *Process, payload []byte) *Delivery {
	t.Helper()
	if err := tx.Port(port.Handle()).Send(payload, nil); err != nil {
		t.Fatal(err)
	}
	d, err := rx.TryRecv()
	if err != nil || d == nil {
		t.Fatalf("TryRecv: %v %v", d, err)
	}
	return d
}

// TestDeliveryReleaseLifecycle pins the payload ownership contract: a
// delivered payload is kernel-pooled until Release, Release nils Data (so a
// stale parse fails instead of reading recycled bytes), a second Release
// panics (use-after-release detector), and Detach exempts the bytes from
// the pool so a later Release cannot reclaim them.
func TestDeliveryReleaseLifecycle(t *testing.T) {
	sys := NewSystem(WithSeed(71))
	rx := sys.NewProcess("rx")
	port := rx.Open(nil)
	if err := port.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	tx := sys.NewProcess("tx")

	d := deliverOne(t, rx, port, tx, []byte("payload-1"))
	if string(d.Data) != "payload-1" {
		t.Fatalf("Data = %q", d.Data)
	}
	d.Release()
	if d.Data != nil {
		t.Fatal("Release must nil Data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Release must panic")
			}
		}()
		d.Release()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Detach after Release must panic")
			}
		}()
		d.Detach()
	}()

	// Detach transfers ownership: the bytes survive any number of Releases
	// and later sends cannot recycle them.
	d2 := deliverOne(t, rx, port, tx, []byte("payload-2"))
	kept := d2.Detach()
	d2.Release()
	d2.Release() // no-op after Detach, must not panic
	for i := 0; i < 64; i++ {
		d := deliverOne(t, rx, port, tx, []byte("overwrite-attempt"))
		d.Release()
	}
	if string(kept) != "payload-2" {
		t.Fatalf("detached payload corrupted: %q", kept)
	}

	// A caller-built Delivery (tests, launch-time dispatch) is inert.
	manual := &Delivery{Data: []byte("manual")}
	manual.Release()
	if string(manual.Data) != "manual" {
		t.Fatal("Release must be a no-op on caller-built deliveries")
	}
}

// TestDeliveryReleaseRecyclesBuffer asserts the buffer actually circulates:
// after a send→receive→Release cycle, the next send's defensive copy reuses
// pooled capacity instead of allocating. (Allocation-count assertions are
// too flaky under the race detector and arbitrary GC timing, so this checks
// the pool plumbing directly.)
func TestDeliveryReleaseRecyclesBuffer(t *testing.T) {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	putPayload(nil, nil) // must not poison the pool

	// Round-trip a buffer through the pool by hand: Release feeds
	// putPayload, sends draw from the pool in copyIn.
	var sent Message
	sent.copyIn(payload)
	d := &Delivery{Data: sent.Data, buf: sent.buf, pooled: true}
	got := cap(d.Data)
	d.Release()
	var next Message
	next.copyIn(nil)
	reused := next.Data
	if cap(reused) < got {
		// Not guaranteed under concurrent tests (sync.Pool is shared), but
		// in this sequential test the just-released buffer is available.
		t.Skip("pool handed back a different buffer (concurrent test run)")
	}
	if len(reused) != 0 {
		t.Fatalf("pooled buffer must be zero-length, got len %d", len(reused))
	}
	putPayload(next.buf, reused)

	// Oversized buffers are not retained.
	huge := make([]byte, maxPooledPayload+1)
	putPayload(nil, huge)
}
