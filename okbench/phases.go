package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// gen produces one round's requests from the workload's seed. The request
// sequence and the open-loop schedule depend on the seed and the round
// alone; only which client thread sends a shared-sequence request depends
// on timing.
type gen struct {
	sp    spec
	seed  uint64
	users []user
	// base is added to every request id, so ids are unique within a run.
	base uint64
	// order is churn's seeded permutation of the warm users; requests go
	// round-robin over it.
	order []int
	// streams holds one request stream per keep-alive lane.
	streams []*kvStream
	// shared numbers the closed-loop requests of the workloads whose
	// clients share one sequence; perLane numbers each keep-alive lane's.
	shared  atomic.Int64
	perLane []int
	// opened counts the open-loop arrivals issued so far.
	opened int
}

// lanes is the generator's client-thread count: at most one connection and
// one thread per core of the 2-core host the benchmark was defined on.
const lanes = 2

func newGen(sp spec, seed uint64, users []user, round int) *gen {
	g := &gen{sp: sp, seed: seed, users: users, base: uint64(round) * ridRound, perLane: make([]int, lanes)}
	g.order = rand.New(rand.NewPCG(seed, 0x5eed_0003)).Perm(sp.warm)
	if sp.keepAlive {
		for c := 0; c < lanes; c++ {
			g.streams = append(g.streams, newKVStream(seed, c, users[c]))
		}
	}
	return g
}

// warm returns lane l's set-up requests: churn logs every warm user in
// once (sessions and login caches filled), keep-alive opens each lane's
// connection with its stream's first request, first-login warms nothing.
func (g *gen) warm(l int) []request {
	var out []request
	switch {
	case g.sp.keepAlive:
		out = append(out, g.streams[l].next(g.base+ridWarm+uint64(l)))
	default:
		for i := l; i < g.sp.warm; i += lanes {
			out = append(out, echoRequest(g.seed, g.base+ridWarm+uint64(i), g.users[g.order[i]]))
		}
	}
	return out
}

// closed returns lane l's next closed-loop request, or false when the
// workload's closed-loop user pool is spent.
func (g *gen) closed(l int) (request, bool) {
	if g.sp.keepAlive {
		i := g.perLane[l]
		g.perLane[l]++
		return g.streams[l].next(g.base + ridClosed + uint64(i*lanes+l)), true
	}
	i := int(g.shared.Add(1) - 1)
	rid := g.base + ridClosed + uint64(i)
	if g.sp.fresh > 0 {
		if i >= g.sp.closedPool {
			return request{}, false
		}
		return echoRequest(g.seed, rid, g.users[g.sp.warm+i]), true
	}
	return echoRequest(g.seed, rid, g.users[g.order[i%g.sp.warm]]), true
}

// openLeft is how many more open-loop arrivals the user pool can serve.
func (g *gen) openLeft() int {
	if g.sp.fresh == 0 {
		return math.MaxInt
	}
	return g.sp.fresh - g.sp.closedPool - g.opened
}

// open returns the request for the run's k-th open-loop arrival, sent by
// lane l. A keep-alive lane always draws from its own stream: its parked
// connection is served in the session of the user who opened it, so a
// request with another user's credentials on it would be answered as that
// user.
func (g *gen) open(l, k int) request {
	rid := g.base + ridOpen + uint64(k)
	switch {
	case g.sp.keepAlive:
		return g.streams[l].next(rid)
	case g.sp.fresh > 0:
		return echoRequest(g.seed, rid, g.users[g.sp.warm+g.sp.closedPool+k])
	}
	return echoRequest(g.seed, rid, g.users[g.order[k%g.sp.warm]])
}

// phase is what one measured phase saw.
type phase struct {
	results []result
	elapsed time.Duration
	// lat and late are open-loop only, in ms: response time of each
	// completed request measured from its intended send time, and how late
	// each send was.
	lat, late []float64
}

// tally counts a phase's outcomes.
type tally struct {
	attempted, ok, failed, wrong, leaks int
}

func (p *phase) tally() tally {
	var t tally
	for _, r := range p.results {
		t.attempted++
		switch r.out {
		case outOK:
			t.ok++
		case outWrong:
			t.wrong++
		case outLeak:
			t.leaks++
		}
	}
	t.failed = t.attempted - t.ok
	return t
}

func (t tally) add(u tally) tally {
	return tally{t.attempted + u.attempted, t.ok + u.ok, t.failed + u.failed, t.wrong + u.wrong, t.leaks + u.leaks}
}

// client holds the generator's lanes for one server.
type client struct {
	lanes []*lane
	// leaked stops every lane as soon as one sees another user's row.
	leaked atomic.Bool
}

func newClient(addr string, keepAlive bool) *client {
	c := &client{}
	for l := 0; l < lanes; l++ {
		c.lanes = append(c.lanes, &lane{addr: addr, keepAlive: keepAlive})
	}
	return c
}

// reqTimeout bounds every exchange; a request that exceeds it fails.
const reqTimeout = 10 * time.Second

func (c *client) close() {
	for _, l := range c.lanes {
		l.close()
	}
}

// each runs fn once per lane on its own goroutine and merges the results
// in lane order.
func (c *client) each(fn func(l int, ln *lane) []result) []result {
	out := make([][]result, len(c.lanes))
	var wg sync.WaitGroup
	for l, ln := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[l] = fn(l, ln)
		}()
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// send is lane.do plus the leak check shared by every phase.
func (c *client) send(ln *lane, req request) result {
	r := ln.do(req)
	if r.out == outLeak {
		c.leaked.Store(true)
	}
	return r
}

// warm runs the set-up requests; every one must succeed.
func (c *client) warm(g *gen) error {
	res := c.each(func(l int, ln *lane) []result {
		var out []result
		for _, req := range g.warm(l) {
			out = append(out, c.send(ln, req))
		}
		return out
	})
	p := phase{results: res}
	if t := p.tally(); t.failed > 0 {
		return fmt.Errorf("set-up: %d of %d warm-up requests failed", t.failed, t.attempted)
	}
	return nil
}

// closedLoop runs a closed-loop window: each lane sends its next request
// when the previous one completes, for dur or until the closed-loop user
// pool is spent.
func (c *client) closedLoop(g *gen, dur time.Duration) phase {
	start := time.Now()
	deadline := start.Add(dur)
	res := c.each(func(l int, ln *lane) []result {
		var out []result
		for time.Now().Before(deadline) && !c.leaked.Load() {
			req, ok := g.closed(l)
			if !ok {
				break
			}
			out = append(out, c.send(ln, req))
		}
		return out
	})
	return phase{results: res, elapsed: time.Since(start)}
}

// openLoop runs an open-loop window: arrival k is due at start+sched[k] and
// is sent by lane k % lanes as soon as that lane is free; its latency runs
// from the due time, so a stall delays, and is charged to, every request
// queued behind it.
func (c *client) openLoop(g *gen, sched []time.Duration) phase {
	sched = sched[:min(len(sched), g.openLeft())]
	base := g.opened
	g.opened += len(sched)
	start := time.Now()
	type timed struct {
		r         result
		lat, late float64
	}
	perLane := make([][]timed, len(c.lanes))
	var wg sync.WaitGroup
	for l, ln := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := l; k < len(sched) && !c.leaked.Load(); k += len(c.lanes) {
				req := g.open(l, base+k)
				due := start.Add(sched[k])
				time.Sleep(time.Until(due))
				r := c.send(ln, req)
				perLane[l] = append(perLane[l], timed{r,
					float64(r.end.Sub(due).Nanoseconds()) / 1e6,
					float64(r.start.Sub(due).Nanoseconds()) / 1e6})
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, ts := range perLane {
		for _, t := range ts {
			p.results = append(p.results, t.r)
			p.late = append(p.late, t.late)
			// Latency is over completed requests; failures are counted,
			// not timed (fail_frac).
			if t.r.out == outOK {
				p.lat = append(p.lat, t.lat)
			}
		}
	}
	return p
}
