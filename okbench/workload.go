package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"
)

// spec is one workload: the users the server provisions, the connection
// discipline and the open-loop rate. Why each workload exists is written
// down in README.md.
type spec struct {
	// warm users are provisioned and logged in (sessions created) during
	// set-up; fresh users are provisioned but never logged in before the
	// request that uses them.
	warm  int
	fresh int
	// closedPool is the fresh users each round's closed-loop window logs
	// in; the window ends early once they are spent. The open-loop window
	// draws from the users after them, so the two loops never share a
	// user. Every round has a server of its own, so every round uses the
	// same users.
	closedPool int
	keepAlive  bool
	// openRPS is the open-loop arrival rate: a constant, about a
	// quarter of the workload's max_rps when the benchmark was defined (see
	// README.md for why not half).
	openRPS float64
}

// Workload constants. kvKeys keys per keep-alive user are filled at set-up
// and never added to. maxKARequest is the largest keep-alive request the
// server answered every time when the benchmark was defined: a larger one
// can arrive in two netd reads, and the worker closes a keep-alive
// connection rather than hold more than 1 KiB of a partial request
// (README.md). writeBody keeps a write request, headers included, within
// it.
const (
	churnUsers     = 1000
	kaUsers        = 2
	kvKeys         = 64
	writeBody      = 1792
	maxKARequest   = 2 << 10
	writeEvery     = 4  // about 1 request in writeEvery is a write
	foreignEvery   = 16 // about 1 read in foreignEvery asks for another user's key
	echoLen        = 11
	firstLoginPool = 1200
)

// specFor returns the named workload sized for a run of the given length.
// scale < 1 shrinks user populations for smoke tests.
func specFor(name string, seconds float64, scale float64) (spec, error) {
	sz := func(n int) int { return max(2, int(float64(n)*scale)) }
	switch name {
	case "churn":
		return spec{warm: sz(churnUsers), openRPS: 260}, nil
	case "keepalive-db":
		return spec{warm: kaUsers, keepAlive: true, openRPS: 3000}, nil
	case "first-login":
		s := spec{closedPool: sz(firstLoginPool), openRPS: 50}
		// Every open-loop window has exactly rate×window arrivals.
		s.fresh = s.closedPool + int(math.Round(s.openRPS*window(seconds).Seconds()))
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want churn, keepalive-db or first-login)", name)
}

// rounds is how many times a run sets a server up and measures a
// closed-loop window and then an open-loop window on it. Each round's
// server is fresh, so the rounds repeat one experiment: first-login's
// labels, which grow with every login, start from the same size in every
// round. The closed-loop figures are totals over the rounds and the
// latencies are pooled over them; alternating the loops makes slow drift
// of the host reach both alike.
const rounds = 5

// window is the length of each closed-loop and each open-loop window: the
// run's measured time split evenly.
func window(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second) / (2 * rounds))
}

// user is one provisioned account.
type user struct {
	name, pass, uid string
}

// users returns the workload's accounts: warm users first, then fresh ones.
// Names and passwords come from the seed; the server provisions exactly
// this list.
func (s spec) users(seed uint64) []user {
	r := rand.New(rand.NewPCG(seed, 0x5eed_0001))
	n := s.warm + s.fresh
	out := make([]user, n)
	for i := range out {
		out[i] = user{
			name: fmt.Sprintf("u%05d%06x", i, r.Uint32()&0xffffff),
			pass: fmt.Sprintf("%012x", r.Uint64()&0xffffffffffff),
			uid:  strconv.Itoa(1000 + i),
		}
	}
	return out
}

// kvKey names user u's k-th row in the keep-alive table.
func kvKey(u, k int) string { return fmt.Sprintf("k%d_%d", u, k) }

// initialBody is the body a kv row holds before any write: deterministic
// from the seed and the key, so both processes agree on its checksum.
func initialBody(seed uint64, key string) []byte {
	return fill(make([]byte, writeBody), mix(seed, hashString(key)))
}

// fill writes printable pseudo-random bytes derived from x into b.
func fill(b []byte, x uint64) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range b {
		if i%8 == 0 {
			x = mix(x, uint64(i))
		}
		b[i] = alphabet[(x>>(8*(i%8)))%uint64(len(alphabet))]
	}
	return b
}

// mix is splitmix64 over a^b: a cheap, well-spread hash for deriving
// per-request values from (seed, index).
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString is FNV-1a 64; the kv handler stores it (hex) as each row's
// checksum, and the client recomputes it to check read-your-own-write.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func checksum(b []byte) string { return strconv.FormatUint(hashString(string(b)), 16) }

// echoValue is the 11-byte body the echo worker must return for request rid.
func echoValue(seed, rid uint64) string {
	return string(fill(make([]byte, echoLen), mix(seed, rid)))
}

// arrivals returns round's open-loop schedule: rate×dur arrival offsets,
// each uniform over the window — a Poisson process at that rate,
// conditioned on its count. Fixing the count fixes how many fresh users a
// first-login round logs in, and so the state its server ends in.
func arrivals(seed uint64, round int, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x5eed_0100+uint64(round)))
	out := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.Int64N(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// Request ids: each round and each phase number their requests from a
// base of their own, so ids are unique within a run and a request's id
// alone says where it came from.
const (
	ridWarm   = 0
	ridClosed = 1 << 40
	ridOpen   = 2 << 40
	ridRound  = 4 << 40
)

// echoRequest builds the GET for one churn or first-login request.
func echoRequest(seed, rid uint64, u user) request {
	e := echoValue(seed, rid)
	raw := fmt.Sprintf("GET /echo?rid=%d&e=%s HTTP/1.0\r\nauthorization: %s %s\r\n\r\n", rid, e, u.name, u.pass)
	return request{rid: rid, raw: []byte(raw), want: e}
}

// kvStream is one keep-alive connection's request sequence: its user's
// reads and writes, and the per-key versions a correct server must show.
type kvStream struct {
	seed  uint64
	conn  int // index of the connection's user among the warm users
	user  user
	rng   *rand.Rand
	state map[string]kvState
}

// kvState is what a read of one key must return: the version of the last
// acknowledged write and the checksum of its body.
type kvState struct {
	ver int
	sum string
}

func newKVStream(seed uint64, conn int, u user) *kvStream {
	s := &kvStream{seed: seed, conn: conn, user: u,
		rng: rand.New(rand.NewPCG(seed, 0x5eed_1000+uint64(conn))), state: map[string]kvState{}}
	for k := 0; k < kvKeys; k++ {
		key := kvKey(conn, k)
		s.state[key] = kvState{ver: 0, sum: checksum(initialBody(seed, key))}
	}
	return s
}

// next returns the stream's next request. Writes bump the key's version;
// the expected state is committed only once the write is acknowledged.
func (s *kvStream) next(rid uint64) request {
	k := s.rng.IntN(kvKeys)
	// kind is uniform over 64 slots: 16 (1 in writeEvery) are writes, and
	// 3 of the 48 reads (1 in foreignEvery) ask for another user's key.
	kind := s.rng.IntN(writeEvery * foreignEvery)
	auth := fmt.Sprintf("authorization: %s %s\r\nconnection: keep-alive\r\n", s.user.name, s.user.pass)
	switch {
	case kind < foreignEvery:
		key := kvKey(s.conn, k)
		body := fill(make([]byte, writeBody), mix(s.seed, rid))
		st := kvState{ver: s.state[key].ver + 1, sum: checksum(body)}
		head := fmt.Sprintf("POST /kv?rid=%d&k=%s&v=%d HTTP/1.0\r\n%scontent-length: %d\r\n\r\n",
			rid, key, st.ver, auth, len(body))
		return request{rid: rid, raw: append([]byte(head), body...), key: key, want: "ok",
			onOK: func() { s.state[key] = st }}
	case kind < foreignEvery+writeEvery-1:
		key := kvKey((s.conn+1)%kaUsers, k)
		raw := fmt.Sprintf("GET /kv?rid=%d&k=%s HTTP/1.0\r\n%s\r\n", rid, key, auth)
		return request{rid: rid, raw: []byte(raw), key: key, want: noRows, foreign: true}
	default:
		key := kvKey(s.conn, k)
		raw := fmt.Sprintf("GET /kv?rid=%d&k=%s HTTP/1.0\r\n%s\r\n", rid, key, auth)
		return request{rid: rid, raw: []byte(raw), key: key, wantFn: func() string {
			st := s.state[key]
			return fmt.Sprintf("%d %s", st.ver, st.sum)
		}}
	}
}

// noRows is the kv worker's body for a read that returned no rows.
const noRows = "-"
