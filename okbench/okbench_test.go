package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's server process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := serveMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "okbench server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// contract is the metric lists of BENCHMARK.json.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runTiny(t *testing.T, workload string, trace int) resultLine {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.6", "--scale", "0.02",
		"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	return res
}

// checkMetrics asserts that a result reports exactly the contract's
// metrics, each with its unit.
func checkMetrics(t *testing.T, res resultLine, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the result line's shape. Whether the server answered correctly is
// what the benchmark reports, not what this test asserts: keepalive-db does
// not pass on the server as README.md describes, and TestBadResponsesFail
// covers the checks themselves.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full stack several times")
	}
	c := loadContract(t)
	for _, w := range c.Work {
		t.Run(w.Name, func(t *testing.T) {
			res := runTiny(t, w.Name, 0)
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Fatalf("untraced: %+v", res)
			}
			checkMetrics(t, res, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			res = runTiny(t, w.Name, 1)
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Fatalf("traced: %+v", res)
			}
			checkMetrics(t, res, c.PerLayer)
		})
	}
}

// serveOnce answers each request on a loopback listener with the response
// body fn returns for its request line, then closes the connection.
func serveOnce(t *testing.T, fn func(reqLine string) string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(c)
			line, _ := br.ReadString('\n')
			for {
				h, err := br.ReadString('\n')
				if err != nil || h == "\r\n" {
					break
				}
			}
			body := fn(line)
			fmt.Fprintf(c, "HTTP/1.0 200 OK\r\ncontent-length: %d\r\n\r\n%s", len(body), body)
			c.Close()
		}
	}()
	return ln.Addr().String()
}

// TestBadResponsesFail checks that a corrupted echo and a cross-user row
// both count as failures, that the row is flagged as a leak and stops the
// client, and that a correct response does not.
func TestBadResponsesFail(t *testing.T) {
	sp, err := specFor("keepalive-db", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	users := sp.users(3)
	u := users[0]
	var echo, foreign request
	echo = echoRequest(3, 42, u)
	for s := newKVStream(3, 0, u); !foreign.foreign; {
		foreign = s.next(1)
	}
	addr := serveOnce(t, func(line string) string {
		switch {
		case strings.Contains(line, "rid=42&"):
			return strings.ToUpper(echo.want) // corrupted echo
		case strings.Contains(line, "/kv?"):
			return "0 abc" // another user's row
		}
		return ""
	})
	cl := newClient(addr, false)
	defer cl.close()
	if r := cl.send(cl.lanes[0], echo); r.out != outWrong {
		t.Errorf("corrupted echo: outcome %v, want outWrong", r.out)
	}
	if cl.leaked.Load() {
		t.Fatal("a wrong body must not count as a leak")
	}
	r := cl.send(cl.lanes[0], foreign)
	if r.out != outLeak || !cl.leaked.Load() {
		t.Errorf("cross-user row: outcome %v leaked %v, want outLeak and a stopped client", r.out, cl.leaked.Load())
	}
	p := phase{results: []result{{out: outOK}, {out: outWrong}, {out: outLeak}, {out: outStatus}, {out: outError}}}
	if got, want := p.tally(), (tally{attempted: 5, ok: 1, failed: 4, wrong: 1, leaks: 1}); got != want {
		t.Errorf("tally = %+v, want %+v", got, want)
	}

	// A read must show the last acknowledged write of its key.
	s := newKVStream(3, 0, u)
	var write request
	for !strings.HasPrefix(string(write.raw), "POST") {
		write = s.next(2)
	}
	if check(write, 200, []byte("ok")) != outOK {
		t.Fatal("acknowledged write rejected")
	}
	var read request
	for read.wantFn == nil || read.key != write.key {
		read = s.next(3)
	}
	v := fmt.Sprintf("%d %s", s.state[write.key].ver-1, checksum(initialBody(3, write.key)))
	if check(read, 200, []byte(v)) != outWrong {
		t.Error("a read showing the version before an acknowledged write must fail")
	}
}

// TestSeedDeterminism checks that one seed always yields the same users,
// requests and arrival schedule, and another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	draw := func(w string, seed uint64) ([][]byte, []time.Duration) {
		sp, err := specFor(w, 6, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		g := newGen(sp, seed, sp.users(seed), 1)
		var raws [][]byte
		for l := 0; l < lanes; l++ {
			for _, r := range g.warm(l) {
				raws = append(raws, r.raw)
			}
		}
		for i := 0; i < 20; i++ {
			if r, ok := g.closed(i % lanes); ok {
				raws = append(raws, r.raw)
			}
		}
		for k := 0; k < 20; k++ {
			raws = append(raws, g.open(k%lanes, k).raw)
		}
		return raws, arrivals(seed, 1, sp.openRPS, time.Second)
	}
	for _, w := range []string{"churn", "keepalive-db", "first-login"} {
		r1, a1 := draw(w, 5)
		r2, a2 := draw(w, 5)
		if !reflect.DeepEqual(r1, r2) || !slices.Equal(a1, a2) {
			t.Errorf("%s: seed 5 drew different inputs on two draws", w)
		}
		r3, a3 := draw(w, 6)
		if reflect.DeepEqual(r1, r3) || slices.Equal(a1, a3) {
			t.Errorf("%s: seeds 5 and 6 drew the same inputs", w)
		}
	}
}

// TestSelfTimes checks self time against hand-computed intervals: a parent
// minus the union of its (overlapping, partly outside) children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestKeepAliveLanesKeepTheirUser checks that every request on a
// keep-alive connection carries the credentials of the user whose stream
// the lane owns, also after an open-loop window with an odd arrival count.
// The worker serves a parked connection in its opener's session, so a
// lane that sent another user's request would see that user's reads
// answered as its own.
func TestKeepAliveLanesKeepTheirUser(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	seen := map[int]map[string]bool{} // connection → users in its requests
	go func() {
		for id := 0; ; id++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					if _, err := br.ReadString('\n'); err != nil {
						return
					}
					clen := 0
					for {
						h, err := br.ReadString('\n')
						if err != nil {
							return
						}
						if h == "\r\n" {
							break
						}
						k, v, _ := strings.Cut(strings.TrimSpace(h), ": ")
						switch k {
						case "authorization":
							name, _, _ := strings.Cut(v, " ")
							mu.Lock()
							if seen[id] == nil {
								seen[id] = map[string]bool{}
							}
							seen[id][name] = true
							mu.Unlock()
						case "content-length":
							clen, _ = strconv.Atoi(v)
						}
					}
					if _, err := io.CopyN(io.Discard, br, int64(clen)); err != nil {
						return
					}
					fmt.Fprintf(c, "HTTP/1.0 200 OK\r\ncontent-length: 1\r\nconnection: keep-alive\r\n\r\n%s", noRows)
				}
			}()
		}
	}()

	sp, err := specFor("keepalive-db", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(sp, 9, sp.users(9), 0)
	cl := newClient(ln.Addr().String(), true)
	defer cl.close()
	for _, n := range []int{3, 4, 5} {
		cl.openLoop(g, make([]time.Duration, n))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != lanes {
		t.Errorf("%d connections, want one per lane (%d)", len(seen), lanes)
	}
	for id, users := range seen {
		if len(users) != 1 {
			t.Errorf("connection %d carried requests of %d users: %v", id, len(users), users)
		}
	}
}

// TestKeepAliveRequestsFitOneRead checks that every keep-alive request,
// writes with long request ids and versions included, stays within
// maxKARequest.
func TestKeepAliveRequestsFitOneRead(t *testing.T) {
	u := user{name: "u00000abcdef", pass: "0123456789ab", uid: "1000"}
	s := newKVStream(5, 0, u)
	for key, st := range s.state {
		st.ver = 999999
		s.state[key] = st
	}
	writes := 0
	for i := 0; i < 1000; i++ {
		req := s.next(ridOpen + 1<<32 + uint64(i))
		if req.onOK != nil {
			writes++
		}
		if len(req.raw) > maxKARequest {
			t.Fatalf("request of %d bytes, want at most %d", len(req.raw), maxKARequest)
		}
	}
	if writes == 0 {
		t.Fatal("no write generated")
	}
}
