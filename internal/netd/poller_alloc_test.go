//go:build linux

package netd

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"asbestos/internal/race"
)

// TestPollerSpinDownAllocBudget pins the poller loop's allocation-free
// spin phase. After an event the loop re-polls with a zero timeout up to
// pollSpins times before it parks; a variable the park callback captures,
// declared inside the loop, moves to the heap on every one of those polls.
// One loopback round trip, then the spin-down, must stay within a small
// malloc budget.
func TestPollerSpinDownAllocBudget(t *testing.T) {
	if !PollerAvailable() {
		t.Skip("epoll poller transport requires linux")
	}
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	ln, err := r.nd.ListenTCPConfig("127.0.0.1:0", 80, TCPConfig{Poller: PollerOn})
	if err != nil {
		t.Fatal(err)
	}
	waitListening(t, r.nd, 80)
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	sock.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := sock.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	d, err := recvOn(r.app, r.notify)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := ParseNotify(d)
	if !ok {
		t.Fatalf("bad notify: % x", d.Data)
	}
	reply := r.replyPort(r.app)
	roundTrip := func() {
		t.Helper()
		if got := readPort(t, r, n.ConnPort, 5); string(got) != "hello" {
			t.Fatalf("netd read %q", got)
		}
		Write(r.app.Port(n.ConnPort), reply, []byte("world"))
		recvOn(r.app, reply)
		buf := make([]byte, 5)
		if _, err := io.ReadFull(sock, buf); err != nil || string(buf) != "world" {
			t.Fatalf("client read %q, %v", buf, err)
		}
	}
	roundTrip() // warm every path and pool
	time.Sleep(50 * time.Millisecond)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sock.Write([]byte("hello"))
	roundTrip()
	time.Sleep(100 * time.Millisecond) // the loop spins down and parks
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("round trip plus spin-down: %d allocations", allocs)
	if allocs > 200 {
		t.Errorf("round trip plus spin-down made %d allocations, want ≤ 200", allocs)
	}
}
