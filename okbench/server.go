package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/kernel"
	"asbestos/internal/okws"
	"asbestos/internal/stats"
)

// The server half runs in its own process: it boots the OKWS stack with
// okws.Launch's default Config plus the benchmark's services (and, in the
// traced run, the Figure 9 profiler), provisions the workload's users,
// announces its address and then answers control commands, one JSON line
// per command, on stdin/stdout. Closing stdin stops it.

// childEnv marks the benchmark binary's server half.
const childEnv = "OKBENCH_SERVER"

type server struct {
	srv   *okws.Server
	sp    spec
	users []user
	prof  *stats.Profiler
	// rec is nil in untraced runs: the handlers then record nothing.
	rec *recorder

	samp *sampler
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	scale := fs.Float64("scale", 1, "user population scale")
	trace := fs.Bool("trace", false, "record handler and query spans and enable the profiler")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := specFor(*name, *seconds, *scale)
	if err != nil {
		return err
	}
	s := &server{sp: sp, users: sp.users(*seed)}
	if *trace {
		s.rec = &recorder{}
		s.prof = stats.NewProfiler()
	}
	addr, err := s.boot(*seed)
	if err != nil {
		return err
	}
	defer s.srv.Stop()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "READY %s\n", addr)
	if err := out.Flush(); err != nil {
		return err
	}
	return s.control(os.Stdin, out)
}

// boot launches the stack, provisions users and fills the workload's table.
func (s *server) boot(seed uint64) (string, error) {
	srv, err := okws.Launch(okws.Config{
		Profiler: s.prof,
		Services: []okws.Service{
			{Name: "echo", Handler: s.traced(echoHandler)},
			{Name: "kv", Handler: s.traced(s.kvHandler)},
		},
	})
	if err != nil {
		return "", err
	}
	s.srv = srv
	for _, u := range s.users {
		if err := srv.AddUser(u.name, u.pass, u.uid); err != nil {
			srv.Stop()
			return "", err
		}
	}
	if s.sp.keepAlive {
		if err := s.fillKV(seed); err != nil {
			srv.Stop()
			return "", err
		}
	}
	ln, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return "", err
	}
	return ln.Addr().String(), nil
}

// fillKV creates the keep-alive table with kvKeys rows per warm user,
// owned by that user (the private owner column ok-dbproxy maintains).
func (s *server) fillKV(seed uint64) error {
	if _, err := s.srv.Database.Exec("CREATE TABLE kv (k, ver, sum, body, _uid)"); err != nil {
		return err
	}
	for u := 0; u < s.sp.warm; u++ {
		for k := 0; k < kvKeys; k++ {
			key := kvKey(u, k)
			body := initialBody(seed, key)
			if _, err := s.srv.Database.Exec("INSERT INTO kv (k, ver, sum, body, _uid) VALUES (?, ?, ?, ?, ?)",
				key, "0", checksum(body), string(body), s.users[u].uid); err != nil {
				return err
			}
		}
	}
	return nil
}

// echoHandler is the §9.2 service: it returns the request's 11-byte e
// parameter.
func echoHandler(_ *okws.Ctx, req *httpmsg.Request, _ func(string, ...string) ([][]string, error)) *httpmsg.Response {
	return &httpmsg.Response{Status: 200, Body: []byte(req.Query["e"])}
}

// kvHandler makes one database round trip per request: a POST stores the
// body (with its checksum and the client's version) in the key's row, a
// GET returns the row's version and checksum, or noRows.
func (s *server) kvHandler(_ *okws.Ctx, req *httpmsg.Request, query func(string, ...string) ([][]string, error)) *httpmsg.Response {
	k := req.Query["k"]
	if req.Method == "POST" {
		if _, err := query("UPDATE kv SET ver = ?, sum = ?, body = ? WHERE k = ?",
			req.Query["v"], checksum(req.Body), string(req.Body), k); err != nil {
			return &httpmsg.Response{Status: 500, Body: []byte(err.Error())}
		}
		return &httpmsg.Response{Status: 200, Body: []byte("ok")}
	}
	rows, err := query("SELECT ver, sum FROM kv WHERE k = ?", k)
	if err != nil {
		return &httpmsg.Response{Status: 500, Body: []byte(err.Error())}
	}
	if len(rows) == 0 {
		return &httpmsg.Response{Status: 200, Body: []byte(noRows)}
	}
	return &httpmsg.Response{Status: 200, Body: []byte(rows[0][0] + " " + rows[0][1])}
}

// traced adapts a benchmark handler to okws.Handler. In a traced run it
// records a span around the handler and one around each Ctx.Query call,
// keyed by the request id the client put in the query string.
func (s *server) traced(h func(*okws.Ctx, *httpmsg.Request, func(string, ...string) ([][]string, error)) *httpmsg.Response) okws.Handler {
	return func(c *okws.Ctx, req *httpmsg.Request) *httpmsg.Response {
		if s.rec == nil {
			return h(c, req, c.Query)
		}
		rid, _ := strconv.ParseUint(req.Query["rid"], 10, 64)
		hid := spanID(rid, kindHandler)
		n := uint64(0)
		query := func(sql string, args ...string) ([][]string, error) {
			start := time.Now()
			rows, err := c.Query(sql, args...)
			s.rec.add(span{ID: spanID(rid, kindQuery+n), Parent: hid, RID: rid, Name: "dbproxy.query",
				Start: start.UnixNano(), End: time.Now().UnixNano()})
			n++
			return rows, err
		}
		start := time.Now()
		resp := h(c, req, query)
		s.rec.add(span{ID: hid, Parent: spanID(rid, kindClient), RID: rid, Name: "okws.handler",
			Start: start.UnixNano(), End: time.Now().UnixNano()})
		return resp
	}
}

// control answers commands until stdin closes.
func (s *server) control(in io.Reader, out *bufio.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	enc := json.NewEncoder(out)
	for sc.Scan() {
		cmd, arg, _ := strings.Cut(sc.Text(), " ")
		var reply any
		var err error
		switch cmd {
		case "stats":
			reply = s.stats()
		case "heap":
			runtime.GC()
			reply = readMetric("/memory/classes/heap/objects:bytes")
		case "sample":
			s.samp = startSampler(s.srv)
			reply = true
		case "unsample":
			reply = s.samp.stop()
			s.samp = nil
		case "spans":
			reply = s.rec.take()
		case "probe":
			var in probeInput
			if err = json.Unmarshal([]byte(arg), &in); err == nil {
				reply, err = s.probe(in)
			}
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			reply = map[string]string{"error": err.Error()}
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// serverStats is one snapshot of the server process's cumulative counters.
type serverStats struct {
	CPUNanos       int64
	Allocs         uint64 // heap objects allocated, tiny ones included
	AllocBytes     uint64
	GCCycles       uint64
	GCCPU          float64 // seconds, runtime/metrics estimate
	TotalCPU       float64
	Goroutines     int
	Drops          uint64
	DemuxSessions  int
	WorkerSessions int
	DemuxEntries   int
	Prof           [4]int64 // Figure 9 ns: kernel IPC, network, OKWS, OKDB
	GOMAXPROCS     int
}

// minus returns the growth of the cumulative counters since s0; the other
// fields are zero.
func (s serverStats) minus(s0 serverStats) serverStats {
	d := serverStats{
		CPUNanos:   s.CPUNanos - s0.CPUNanos,
		Allocs:     s.Allocs - s0.Allocs,
		AllocBytes: s.AllocBytes - s0.AllocBytes,
		GCCycles:   s.GCCycles - s0.GCCycles,
		GCCPU:      s.GCCPU - s0.GCCPU,
		TotalCPU:   s.TotalCPU - s0.TotalCPU,
		Drops:      s.Drops - s0.Drops,
	}
	for i := range d.Prof {
		d.Prof[i] = s.Prof[i] - s0.Prof[i]
	}
	return d
}

// plus adds the cumulative counters of d to s's.
func (s serverStats) plus(d serverStats) serverStats {
	s.CPUNanos += d.CPUNanos
	s.Allocs += d.Allocs
	s.AllocBytes += d.AllocBytes
	s.GCCycles += d.GCCycles
	s.GCCPU += d.GCCPU
	s.TotalCPU += d.TotalCPU
	s.Drops += d.Drops
	for i := range s.Prof {
		s.Prof[i] += d.Prof[i]
	}
	return s
}

func (s *server) stats() serverStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	st := serverStats{
		CPUNanos: ru.Utime.Nano() + ru.Stime.Nano(),
		Allocs: readMetric("/gc/heap/allocs:objects") +
			readMetric("/gc/heap/tiny/allocs:objects"),
		AllocBytes:   readMetric("/gc/heap/allocs:bytes"),
		GCCycles:     readMetric("/gc/cycles/total:gc-cycles"),
		GCCPU:        readFloat("/cpu/classes/gc/total:cpu-seconds"),
		TotalCPU:     readFloat("/cpu/classes/total:cpu-seconds"),
		Goroutines:   runtime.NumGoroutine(),
		Drops:        s.srv.Sys.Drops(),
		DemuxEntries: s.srv.Demux.Process().SendLabel().Len(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	st.DemuxSessions = s.srv.Demux.SessionCount()
	for _, w := range s.srv.Workers() {
		st.WorkerSessions += w.SessionCount()
	}
	for i, c := range []stats.Category{stats.CatKernelIPC, stats.CatNetwork, stats.CatOKWS, stats.CatOKDB} {
		st.Prof[i] = int64(s.prof.Total(c))
	}
	return st
}

func readMetric(name string) uint64 {
	sm := []metrics.Sample{{Name: name}}
	metrics.Read(sm)
	if sm[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sm[0].Value.Uint64()
}

func readFloat(name string) float64 {
	sm := []metrics.Sample{{Name: name}}
	metrics.Read(sm)
	if sm[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sm[0].Value.Float64()
}

// sampler polls the trusted services' queue depths and the goroutine
// count every half millisecond while a traced open-loop phase runs.
type sampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  queueMax
}

// queueMax holds the largest values a sampler saw.
type queueMax struct {
	Netd, Demux, Idd, DBProxy int
	Goroutines                int
}

func startSampler(srv *okws.Server) *sampler {
	sm := &sampler{done: make(chan struct{})}
	groups := [][]*kernel.Process{
		srv.Netd.Processes(),
		{srv.Demux.Process()},
		srv.Idd.Processes(),
		{srv.Proxy.Process()},
	}
	peak := func(ps []*kernel.Process) int {
		m := 0
		for _, p := range ps {
			m = max(m, p.QueueLen())
		}
		return m
	}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-sm.done:
				return
			case <-t.C:
				m := &sm.max
				m.Netd = max(m.Netd, peak(groups[0]))
				m.Demux = max(m.Demux, peak(groups[1]))
				m.Idd = max(m.Idd, peak(groups[2]))
				m.DBProxy = max(m.DBProxy, peak(groups[3]))
				m.Goroutines = max(m.Goroutines, runtime.NumGoroutine())
			}
		}
	}()
	return sm
}

func (q queueMax) merge(o queueMax) queueMax {
	return queueMax{max(q.Netd, o.Netd), max(q.Demux, o.Demux), max(q.Idd, o.Idd),
		max(q.DBProxy, o.DBProxy), max(q.Goroutines, o.Goroutines)}
}

// stop ends the sampling goroutine and returns the maxima it saw.
func (sm *sampler) stop() queueMax {
	if sm == nil {
		return queueMax{}
	}
	close(sm.done)
	sm.wg.Wait()
	return sm.max
}
