package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/passhash"
)

// Probes time one layer's public functions on the inputs the workload
// generated and on state copied from the running server. They run only in
// the traced run, after its traffic has stopped.

// probeInput is what the generator hands the server for probing.
type probeInput struct {
	Small []byte // the workload's GET, as sent
	Large []byte // the workload's largest request, as sent
	User  string // a warm user (or, with no warm users, a fresh user the run logged in)
	Pass  string
	Key   string // a key the workload's reads used (keep-alive table)
}

// probeResult is every probe's figure.
type probeResult struct {
	DBSelectUS, DBUpdateUS       float64
	LoginColdUS, LoginWarmUS     float64
	VerifyUS                     float64
	RTTNanos, RTTAllocs          float64
	LeqNanos, LubNanos, OpAllocs float64
	ParseSmallUS, ParseLargeUS   float64
}

func (s *server) probe(in probeInput) (probeResult, error) {
	var r probeResult
	var err error
	if r.DBSelectUS, r.DBUpdateUS, err = s.probeDB(in); err != nil {
		return r, fmt.Errorf("db probe: %w", err)
	}
	if r.LoginColdUS, r.LoginWarmUS, err = s.probeLogin(in); err != nil {
		return r, fmt.Errorf("login probe: %w", err)
	}
	if r.VerifyUS, err = s.probeVerify(in); err != nil {
		return r, fmt.Errorf("verify probe: %w", err)
	}
	r.RTTNanos, r.RTTAllocs = s.probeKernel(len(in.Small))
	r.LeqNanos, r.LubNanos, r.OpAllocs = s.probeLabel()
	for _, p := range []struct {
		raw []byte
		out *float64
	}{{in.Small, &r.ParseSmallUS}, {in.Large, &r.ParseLargeUS}} {
		if _, _, ok, err := httpmsg.ParseRequest(p.raw); !ok || err != nil {
			return r, fmt.Errorf("parse probe: request did not parse (%v)", err)
		}
		*p.out = perOp(func() { httpmsg.ParseRequest(p.raw) }).ns / 1e3
	}
	return r, nil
}

// opCost is one probe's per-operation time and allocation count.
type opCost struct{ ns, allocs float64 }

// perOp times fn: five batches, each long enough to read on a coarse
// clock, and returns the median batch's per-call cost.
func perOp(fn func()) opCost {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var costs []opCost
	for b := 0; b < 5; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		costs = append(costs, opCost{float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)})
	}
	slices.SortFunc(costs, func(a, b opCost) int { return cmp.Compare(a.ns, b.ns) })
	return costs[len(costs)/2]
}

// probeDB copies the workload's table out of the running database into a
// fresh one and times db.Exec of the statement shapes the workload's
// requests cause: the keep-alive table's keyed SELECT and UPDATE, or idd's
// credential lookup and handle-pair UPDATE on its user table.
func (s *server) probeDB(in probeInput) (selectUS, updateUS float64, err error) {
	table, sel, upd, args := idd.UsersTable,
		"SELECT password, uid, ut, ug FROM "+idd.UsersTable+" WHERE name = ?",
		"UPDATE "+idd.UsersTable+" SET ut = ?, ug = ? WHERE name = ?",
		[]string{"1", "2", in.User}
	if s.sp.keepAlive {
		body := string(in.Large[strings.Index(string(in.Large), "\r\n\r\n")+4:])
		table, sel, upd, args = "kv",
			"SELECT ver, sum FROM kv WHERE k = ?",
			"UPDATE kv SET ver = ?, sum = ?, body = ? WHERE k = ?",
			[]string{"1", checksum([]byte(body)), body, in.Key}
	}
	cols, err := s.srv.Database.Columns(table)
	if err != nil {
		return 0, 0, err
	}
	list := strings.Join(cols, ", ")
	rows, err := s.srv.Database.Exec("SELECT " + list + " FROM " + table)
	if err != nil {
		return 0, 0, err
	}
	d := db.Open()
	if _, err := d.Exec("CREATE TABLE " + table + " (" + list + ")"); err != nil {
		return 0, 0, err
	}
	marks := strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ")
	for _, row := range rows.Rows {
		if _, err := d.Exec("INSERT INTO "+table+" ("+list+") VALUES ("+marks+")", row...); err != nil {
			return 0, 0, err
		}
	}
	key := args[len(args)-1]
	if res, err := d.Exec(sel, key); err != nil || len(res.Rows) != 1 {
		return 0, 0, fmt.Errorf("select of %q: %d rows, %v", key, len(res.Rows), err)
	}
	if _, err := d.Exec(upd, args...); err != nil {
		return 0, 0, err
	}
	selectUS = perOp(func() { d.Exec(sel, key) }).ns / 1e3
	updateUS = perOp(func() { d.Exec(upd, args...) }).ns / 1e3
	return selectUS, updateUS, nil
}

// loginProbes is the number of timed idd logins of each kind.
const loginProbes = 32

// probeLogin times idd.Login round trips through the running idd from a
// fresh kernel process: cold logins of users provisioned for the probe and
// never logged in (the database and Argon2id path), and warm repeat logins
// of one of them (idd's identity cache).
func (s *server) probeLogin(in probeInput) (coldUS, warmUS float64, err error) {
	sys := s.srv.Sys
	p := sys.NewProcess("okbench-probe")
	defer p.Exit()
	ports := s.srv.Idd.LoginPorts()
	login := func(u user) (time.Duration, error) {
		reply := p.Open(nil)
		defer reply.Dissociate()
		t0 := time.Now()
		if err := idd.Login(p.Port(ports[idd.ShardFor(u.name, len(ports))]), 1, u.name, u.pass, reply.Handle()); err != nil {
			return 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d, err := reply.Recv(ctx)
		if err != nil {
			return 0, err
		}
		_, _, ok := idd.ParseLoginReply(d)
		d.Release()
		if !ok {
			return 0, fmt.Errorf("login of %s refused", u.name)
		}
		return time.Since(t0), nil
	}
	var cold, warm []float64
	for i := 0; i < loginProbes; i++ {
		u := user{name: fmt.Sprintf("probe%03d", i), pass: in.Pass, uid: fmt.Sprint(900000 + i)}
		if err := s.srv.AddUser(u.name, u.pass, u.uid); err != nil {
			return 0, 0, err
		}
		d, err := login(u)
		if err != nil {
			return 0, 0, err
		}
		cold = append(cold, float64(d.Nanoseconds())/1e3)
	}
	u := user{name: "probe000", pass: in.Pass}
	for i := 0; i < loginProbes; i++ {
		d, err := login(u)
		if err != nil {
			return 0, 0, err
		}
		warm = append(warm, float64(d.Nanoseconds())/1e3)
	}
	return quantile(cold, 0.5), quantile(warm, 0.5), nil
}

// probeVerify times passhash.Verify against a stored credential from the
// running server's user table.
func (s *server) probeVerify(in probeInput) (float64, error) {
	res, err := s.srv.Database.Exec("SELECT password FROM "+idd.UsersTable+" WHERE name = ?", in.User)
	if err != nil || len(res.Rows) != 1 {
		return 0, fmt.Errorf("no stored credential for %q (%v)", in.User, err)
	}
	hash := res.Rows[0][0]
	if !passhash.Verify(in.Pass, hash) {
		return 0, fmt.Errorf("stored credential of %q does not verify", in.User)
	}
	return perOp(func() { passhash.Verify(in.Pass, hash) }).ns / 1e3, nil
}

// probeKernel times Port.Send then Recv of a message of the workload's
// request size, from a sender whose label carries as many entries as the
// running demux's, on a fresh kernel.
func (s *server) probeKernel(size int) (ns, allocs float64) {
	sys := kernel.NewSystem()
	tx := sys.NewProcess("tx")
	for range s.srv.Demux.Process().SendLabel().Len() {
		tx.NewHandle()
	}
	rx := sys.NewProcess("rx")
	inbox := rx.Open(nil)
	inbox.SetLabel(label.Empty(label.L3))
	out := tx.Port(inbox.Handle())
	msg := make([]byte, size)
	c := perOp(func() {
		out.Send(msg, nil)
		if d, _ := inbox.TryRecv(); d != nil {
			d.Release()
		}
	})
	return c.ns, c.allocs
}

// probeLabel times ⊑ and ⊔ on labels copied from the running server: the
// demux's send label against the ok-dbproxy's (a ⊑ a⊔b holds, so ⊑ walks
// both labels in full).
func (s *server) probeLabel() (leqNS, lubNS, allocs float64) {
	a := s.srv.Demux.Process().SendLabel()
	b := s.srv.Proxy.Process().SendLabel()
	ab := a.Lub(b)
	leq := perOp(func() { a.Leq(ab) })
	lub := perOp(func() { a.Lub(b) })
	return leq.ns, lub.ns, leq.allocs + lub.allocs
}
