// Command okbench is the repository's end-to-end benchmark. It boots the
// full OKWS stack (kernel, netd, ok-demux, idd, ok-dbproxy, database,
// workers) with okws.Launch's default Config in a server process of its
// own, drives it over loopback TCP from this process with two client
// threads, checks every response, and prints one JSON line of metrics.
//
// Usage:
//
//	okbench --workload churn|keepalive-db|first-login --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the separate
// traced run that reports the per-layer metrics. README.md explains the
// workloads, the metrics and how to read a traced run.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		if err := serveMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "okbench server:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "okbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	scale    float64
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("okbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "churn, keepalive-db or first-login")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (half closed loop, half open loop)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "okbench"), "directory for the result and span files")
	fs.Float64Var(&o.scale, "scale", 1, "user population scale (smoke tests shrink it)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return o, fmt.Errorf("--seconds and --scale must be positive")
	}
	return o, nil
}

// runLimit is how long a run may take before the watchdog kills it: the
// benchmark must end within three minutes of wall time.
const runLimit = 170 * time.Second

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	sp, err := specFor(o.workload, o.seconds, o.scale)
	if err != nil {
		return err
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "okbench: run exceeded", runLimit)
		killChildren()
		os.Exit(2)
	})
	defer watchdog.Stop()
	b := &bench{o: o, sp: sp, users: sp.users(o.seed)}
	var res *report
	if o.trace {
		res, err = b.tracedRun()
	} else {
		res, err = b.untracedRun()
	}
	if err != nil {
		return err
	}
	res.Env = environment(o, res.serverProcs)
	if err := res.write(o); err != nil {
		return err
	}
	res.summary(os.Stderr)
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if res.tally.leaks > 0 {
		return fmt.Errorf("isolation broken: %d reads returned another user's row", res.tally.leaks)
	}
	return nil
}

type bench struct {
	o     options
	sp    spec
	users []user
}

// setup boots a server and warms it for the given round; its duration is
// one setup_s sample.
func (b *bench) setup(traced bool, round int) (*child, *client, *gen, time.Duration, error) {
	start := time.Now()
	args := []string{"-workload", b.o.workload, "-seed", fmt.Sprint(b.o.seed),
		"-seconds", fmt.Sprint(b.o.seconds), "-scale", fmt.Sprint(b.o.scale), fmt.Sprintf("-trace=%t", traced)}
	ch, err := spawn(args)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	g := newGen(b.sp, b.o.seed, b.users, round)
	cl := newClient(ch.addr, b.sp.keepAlive)
	if err := cl.warm(g); err != nil {
		cl.close()
		ch.stop()
		return nil, nil, nil, 0, err
	}
	return ch, cl, g, time.Since(start), nil
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.
type report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Traced   bool              `json:"traced"`
	Metrics  map[string]metric `json:"metrics"`
	// Info holds figures printed and recorded but not in the result line:
	// fail_frac (the line's failed/attempted) and sample counts.
	Info  map[string]float64 `json:"info"`
	Env   map[string]string  `json:"env"`
	Spans []span             `json:"spans,omitempty"`

	tally       tally
	serverProcs int
}

func newReport(b *bench) *report {
	return &report{Workload: b.o.workload, Seed: b.o.seed, Traced: b.o.trace,
		Metrics: map[string]metric{}, Info: map[string]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun() (*report, error) {
	r := newReport(b)
	m, err := b.measure(false, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", median(m.setups))
	r.set("heap_mb", "MB", median(m.heaps)/1e6)
	r.set("max_rps", "1/s", m.maxRPS())
	r.set("cpu_us_per_req", "us", float64(m.closedCPU)/1e3/float64(m.closedOK))
	r.set("allocs_per_req", "count", float64(m.closedAllocs)/float64(m.closedOK))
	r.set("p50_ms", "ms", quantile(m.lat, 0.5))
	// p99 is printed and recorded but left out of the result line: its
	// run-to-run spread exceeds any bound the benchmark may set (README.md).
	r.Info["p99_ms"] = quantile(m.lat, 0.99)
	r.serverProcs = m.first.GOMAXPROCS
	r.noteSamples(m)
	r.finish(m.tally)
	return r, nil
}

// measured is what the rounds of one run saw. The closed-loop totals sum
// over every round's closed-loop window.
type measured struct {
	setups []float64 // seconds
	heaps  []float64 // bytes, live after set-up
	// first is the first round's server right after set-up; grown sums
	// the growth of every server's counters while its round ran.
	first, grown serverStats

	closedOK     int
	closedTime   time.Duration
	closedCPU    int64  // server CPU ns
	closedAllocs uint64 // server heap objects
	// lat pools the open-loop latencies of every round.
	lat          []float64
	closed, open []phase
	tally        tally
	ok           int // completed requests, both loops
	queues       queueMax
	spans        []span // server spans, traced runs only
}

// measure runs the rounds, each on a server of its own: set up, then a
// closed-loop window, then an open-loop window at the workload's fixed
// rate. A traced run's servers record spans and sample their queues
// during the open-loop window. last, when set, runs on the last round's
// server before it stops.
func (b *bench) measure(traced bool, last func(*child, *gen) error) (*measured, error) {
	m := &measured{}
	for i := 0; i < rounds && m.tally.leaks == 0; i++ {
		ch, cl, g, d, err := b.setup(traced, i)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
		err = b.round(m, ch, cl, g, i, traced)
		if err == nil && last != nil && i == rounds-1 {
			err = last(ch, g)
		}
		cl.close()
		if stopErr := ch.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// round measures round i on a freshly set-up server.
func (b *bench) round(m *measured, ch *child, cl *client, g *gen, i int, traced bool) error {
	win := window(b.o.seconds)
	var heap uint64
	if err := ch.call("heap", nil, &heap); err != nil {
		return err
	}
	m.heaps = append(m.heaps, float64(heap))
	var start, mid, end serverStats
	if err := ch.call("stats", nil, &start); err != nil {
		return err
	}
	if i == 0 {
		m.first = start
	}
	closed := cl.closedLoop(g, win)
	if err := ch.call("stats", nil, &mid); err != nil {
		return err
	}
	t := closed.tally()
	if t.ok == 0 {
		return fmt.Errorf("closed loop completed no request (%d attempted)", t.attempted)
	}
	m.closedOK += t.ok
	m.closedTime += closed.elapsed
	m.closedCPU += mid.CPUNanos - start.CPUNanos
	m.closedAllocs += mid.Allocs - start.Allocs

	if traced {
		if err := ch.call("sample", nil, nil); err != nil {
			return err
		}
	}
	open := cl.openLoop(g, arrivals(b.o.seed, i, b.sp.openRPS, win))
	if traced {
		var q queueMax
		if err := ch.call("unsample", nil, &q); err != nil {
			return err
		}
		m.queues = m.queues.merge(q)
		var spans []span
		if err := ch.call("spans", nil, &spans); err != nil {
			return err
		}
		m.spans = append(m.spans, spans...)
	}
	if err := ch.call("stats", nil, &end); err != nil {
		return err
	}
	m.grown = m.grown.plus(end.minus(start))
	m.lat = append(m.lat, open.lat...)
	m.closed, m.open = append(m.closed, closed), append(m.open, open)
	ot := open.tally()
	m.tally = m.tally.add(t).add(ot)
	m.ok += t.ok + ot.ok
	return nil
}

// maxRPS is the completed requests per second over the closed-loop windows.
func (m *measured) maxRPS() float64 { return float64(m.closedOK) / m.closedTime.Seconds() }

// noteSamples records the open-loop sample count: p99 needs 1000 to have
// ten samples beyond it.
func (r *report) noteSamples(m *measured) {
	r.Info["open_samples"] = float64(len(m.lat))
	r.Info["rounds"] = float64(len(m.open))
}

// finish records the run's outcome counts.
func (r *report) finish(t tally) {
	r.tally = t
	r.Info["fail_frac"] = float64(t.failed) / float64(max(t.attempted, 1))
	r.Info["wrong_bodies"] = float64(t.wrong)
	r.Info["leaks"] = float64(t.leaks)
}

// tracedRun measures the per-layer metrics: every round on a default
// server gives the baseline for the tracing overhead, then a traced server
// (spans and the Figure 9 profiler on) runs every round again, and the
// probes.
func (b *bench) tracedRun() (*report, error) {
	r := newReport(b)
	base, err := b.measure(false, nil)
	if err != nil {
		return nil, err
	}
	var pr probeResult
	m, err := b.measure(true, func(ch *child, g *gen) error {
		return ch.call("probe", b.probeInput(g), &pr)
	})
	if err != nil {
		return nil, err
	}
	s0, d := m.first, m.grown
	r.set("okws.demux_sessions", "count", float64(s0.DemuxSessions))
	r.set("okws.worker_sessions", "count", float64(s0.WorkerSessions))
	r.set("label.demux_entries", "count", float64(s0.DemuxEntries))

	reqs := float64(max(m.ok, 1))
	r.set("trace.overhead_frac", "fraction", 1-m.maxRPS()/base.maxRPS())
	var late []float64
	var sent []result
	for i := range m.open {
		late = append(late, m.open[i].late...)
		sent = append(append(sent, m.closed[i].results...), m.open[i].results...)
	}
	r.set("gen.late_p99_ms", "ms", quantile(late, 0.99))
	r.set("p99_ms", "ms", quantile(m.lat, 0.99))
	r.set("evloop.queue_max.netd", "count", float64(m.queues.Netd))
	r.set("evloop.queue_max.demux", "count", float64(m.queues.Demux))
	r.set("evloop.queue_max.idd", "count", float64(m.queues.Idd))
	r.set("evloop.queue_max.dbproxy", "count", float64(m.queues.DBProxy))
	r.set("runtime.goroutines_peak", "count", float64(m.queues.Goroutines))
	r.set("kernel.drops_per_kreq", "count", float64(d.Drops)*1e3/reqs)
	r.set("runtime.gc_cpu_frac", "fraction", d.GCCPU/max(d.TotalCPU, 1e-9))
	r.set("runtime.gc_per_kreq", "count", float64(d.GCCycles)*1e3/reqs)
	r.set("runtime.alloc_bytes_per_req", "B", float64(d.AllocBytes)/reqs)
	for i, name := range []string{"fig9.kernel_ipc_us", "fig9.network_us", "fig9.okws_us", "fig9.okdb_us"} {
		r.set(name, "us", float64(d.Prof[i])/1e3/reqs)
	}

	r.Spans = joinSpans(sent, m.spans)
	var open []result
	for _, p := range m.open {
		open = append(open, p.results...)
	}
	r.layerSpans(open, m.spans)

	r.set("db.select_us", "us", pr.DBSelectUS)
	r.set("db.update_us", "us", pr.DBUpdateUS)
	r.set("idd.login_cold_us", "us", pr.LoginColdUS)
	r.set("idd.login_warm_us", "us", pr.LoginWarmUS)
	r.set("passhash.verify_us", "us", pr.VerifyUS)
	r.set("kernel.rtt_ns", "ns", pr.RTTNanos)
	r.set("kernel.rtt_allocs", "count", pr.RTTAllocs)
	r.set("label.leq_ns", "ns", pr.LeqNanos)
	r.set("label.lub_ns", "ns", pr.LubNanos)
	r.set("label.op_allocs", "count", pr.OpAllocs)
	r.set("httpmsg.parse_small_us", "us", pr.ParseSmallUS)
	r.set("httpmsg.parse_large_us", "us", pr.ParseLargeUS)

	r.Info["untraced_max_rps"] = base.maxRPS()
	r.Info["traced_max_rps"] = m.maxRPS()
	r.serverProcs = s0.GOMAXPROCS
	r.noteSamples(m)
	r.finish(m.tally.add(base.tally))
	return r, nil
}

// joinSpans adds the client spans of every request to the server's spans.
func joinSpans(results []result, server []span) []span {
	out := make([]span, 0, len(results)+len(server))
	for _, res := range results {
		out = append(out, span{ID: spanID(res.rid, kindClient), RID: res.rid, Name: "client",
			Start: res.start.UnixNano(), End: res.end.UnixNano()})
	}
	return append(out, server...)
}

// layerSpans derives the span-based per-layer metrics: front-end time
// (client span minus the handler span of the same request, over the
// open-loop phase), handler self time, and query time.
func (r *report) layerSpans(open []result, server []span) {
	self := selfTimes(r.Spans)
	var front, handler, query []float64
	for _, res := range open {
		if res.out == outOK {
			front = append(front, float64(self[spanID(res.rid, kindClient)])/1e3)
		}
	}
	for _, s := range server {
		switch s.Name {
		case "okws.handler":
			handler = append(handler, float64(self[s.ID])/1e3)
		case "dbproxy.query":
			query = append(query, float64(s.End-s.Start)/1e3)
		}
	}
	r.set("okws.front_p50_us", "us", quantile(front, 0.5))
	r.set("okws.front_p99_us", "us", quantile(front, 0.99))
	r.set("okws.handler_self_us", "us", quantile(handler, 0.5))
	r.set("dbproxy.query_p50_us", "us", quantile(query, 0.5))
	r.set("dbproxy.query_p99_us", "us", quantile(query, 0.99))
	r.Info["handler_spans"] = float64(len(handler))
	r.Info["query_spans"] = float64(len(query))
}

// probeInput picks the probes' inputs from the run's requests: a GET, the
// largest request, a logged-in user and a key its reads used.
func (b *bench) probeInput(g *gen) probeInput {
	u := b.users[0]
	in := probeInput{User: u.name, Pass: u.pass}
	small := g.open(0, 0)
	in.Small, in.Large = small.raw, small.raw
	if b.sp.keepAlive {
		// Replay the first lane's stream on a fresh copy to find a write and
		// a read of its own key, exactly as the run generated them.
		s := newKVStream(b.o.seed, 0, u)
		for i := 0; in.Key == "" || len(in.Large) == len(in.Small); i++ {
			req := s.next(uint64(i))
			switch {
			case strings.HasPrefix(string(req.raw), "POST"):
				in.Large = req.raw
			case !req.foreign:
				in.Small, in.Key = req.raw, req.key
			}
		}
	}
	return in
}

// line is the result line the benchmark prints last.
func (r *report) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.tally.wrong == 0 && r.tally.leaks == 0, max(r.tally.attempted, 1), r.tally.failed, r.Metrics}
}

// write records the run — environment, every metric and, for a traced
// run, every span — under the output directory.
func (r *report) write(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Traced]))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints every metric by name with its unit, then the outcome
// counts and the environment.
func (r *report) summary(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "okbench %s seed %d (%s)\n", r.Workload, r.Seed, map[bool]string{false: "end-to-end", true: "traced"}[r.Traced])
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if v, ok := r.Info["p99_ms"]; ok {
		fmt.Fprintf(w, "  %-28s %14.4f ms       (recorded, not in the result line)\n", "p99_ms", v)
	}
	fmt.Fprintf(w, "  %-28s %14.6f fraction (%d failed of %d attempted; %d wrong bodies, %d leaks)\n",
		"fail_frac", r.Info["fail_frac"], r.tally.failed, r.tally.attempted, r.tally.wrong, r.tally.leaks)
	n := r.Info["open_samples"]
	fmt.Fprintf(w, "  open-loop samples: %.0f over %.0f rounds\n", n, r.Info["rounds"])
	if n < 1000 {
		fmt.Fprintln(w, "  warning: p99 has fewer than 10 samples beyond it")
	}
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %s: %s\n", k, r.Env[k])
	}
}

// environment records where the figures came from.
func environment(o options, serverProcs int) map[string]string {
	return map[string]string{
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs_generator": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"gomaxprocs_server":    fmt.Sprint(serverProcs),
		"go":                   runtime.Version(),
		"commit":               commit(),
		"seed":                 fmt.Sprint(o.seed),
		"seconds":              fmt.Sprint(o.seconds),
		"link":                 "loopback, not a real link",
	}
}

// commit identifies the code measured: the git HEAD when the working
// directory is a checkout with git metadata, and always a digest of the
// Go sources and module files beneath it.
func commit() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	id := "sources sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		id = "git " + strings.TrimSpace(string(out)) + ", " + id
	}
	return id
}

// child is the server process.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

// children tracks live server processes so the watchdog can kill them.
var children struct {
	sync.Mutex
	set map[*exec.Cmd]bool
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.set {
		c.Process.Kill()
		c.Process.Wait() // an error only means stop is already reaping it
	}
}

// spawn starts the server half of this binary and waits for its address.
func spawn(args []string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.set == nil {
		children.set = map[*exec.Cmd]bool{}
	}
	children.set[cmd] = true
	children.Unlock()
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20)}
	line, err := c.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
	if err != nil || !ok {
		c.stop()
		return nil, fmt.Errorf("server did not start (%q, %v)", line, err)
	}
	c.addr = addr
	return c, nil
}

// call sends one control command and decodes its JSON reply into reply
// (which may be nil).
func (c *child) call(cmd string, arg, reply any) error {
	line := cmd
	if arg != nil {
		b, err := json.Marshal(arg)
		if err != nil {
			return err
		}
		line += " " + string(b)
	}
	if _, err := fmt.Fprintln(c.in, line); err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	resp, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(resp, &e) == nil && e.Error != "" {
		return fmt.Errorf("server %s: %s", cmd, e.Error)
	}
	if reply == nil {
		return nil
	}
	return json.Unmarshal(resp, reply)
}

// stop closes the server's stdin, its shutdown signal, and waits for it to
// exit; a server that hangs is killed.
func (c *child) stop() error {
	c.in.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-done
		err = errors.New("server hung at shutdown")
	}
	children.Lock()
	delete(children.set, c.cmd)
	children.Unlock()
	return err
}
