package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The client speaks HTTP/1.0 itself instead of using the server's codec,
// so a change to that codec moves only the server side of the benchmark.

// request is one generated request and what a correct server answers.
type request struct {
	rid uint64
	raw []byte
	key string // the kv row a keep-alive request names
	// want is the exact body a correct server returns; wantFn, when set,
	// computes it at check time (a read must show the writes acknowledged
	// before it).
	want   string
	wantFn func() string
	// foreign marks a read of another user's key: any row is a leak.
	foreign bool
	// onOK commits the request's effect on the expected state.
	onOK func()
}

// outcome classifies one exchange.
type outcome int

const (
	outOK     outcome = iota
	outError          // dial, write, read or timeout
	outStatus         // a status other than 200
	outWrong          // a 200 with the wrong body
	outLeak           // another user's row came back: the run aborts
)

// check classifies a response to req and commits req's effect if it is
// correct.
func check(req request, status int, body []byte) outcome {
	if status != 200 {
		return outStatus
	}
	want := req.want
	if req.wantFn != nil {
		want = req.wantFn()
	}
	if string(body) != want {
		if req.foreign {
			return outLeak
		}
		return outWrong
	}
	if req.onOK != nil {
		req.onOK()
	}
	return outOK
}

// conn is one client TCP connection with its read buffer.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string, timeout time.Duration) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	// Abort rather than linger once done: tens of thousands of short
	// connections per run would otherwise leave as many TIME_WAIT sockets
	// behind, and back-to-back runs would share them.
	c.(*net.TCPConn).SetLinger(0)
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

// exchange writes one request and reads one content-length framed
// response.
func (cn *conn) exchange(raw []byte, timeout time.Duration) (status int, body []byte, err error) {
	if err := cn.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := cn.c.Write(raw); err != nil {
		return 0, nil, err
	}
	return readResponse(cn.br)
}

// awaitClose waits, up to timeout, for the server to close a
// connection-close exchange.
func (cn *conn) awaitClose(timeout time.Duration) {
	if cn.c.SetDeadline(time.Now().Add(timeout)) == nil {
		cn.br.ReadByte()
	}
}

func (cn *conn) close() { cn.c.Close() }

// readResponse parses "HTTP/1.x <status> ..." , header lines up to the
// blank line, and a content-length body.
func readResponse(br *bufio.Reader) (status int, body []byte, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, nil, err
	}
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(f[1])); err != nil {
		return 0, nil, fmt.Errorf("bad status %q", f[1])
	}
	clen := -1
	for {
		line, err := readLine(br)
		if err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("content-length")) {
			if clen, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil || clen < 0 {
				return 0, nil, fmt.Errorf("bad content-length %q", v)
			}
		}
	}
	if clen < 0 {
		return 0, nil, fmt.Errorf("response without content-length")
	}
	body = make([]byte, clen)
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// readLine returns one CRLF-terminated line without its terminator.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r")), nil
}

// lane is one of the generator's client threads. A keep-alive lane holds
// its connection across requests (re-dialling after a failure); otherwise
// every request opens and closes its own connection.
type lane struct {
	addr      string
	keepAlive bool
	cn        *conn
}

// result is one finished exchange: the client span and its outcome.
type result struct {
	rid        uint64
	start, end time.Time
	out        outcome
}

// do sends req and reads its response. The client span ends when the
// response has been read, before a connection-close exchange waits for
// the server's close.
func (l *lane) do(req request) result {
	r := result{rid: req.rid, start: time.Now(), out: outError}
	cn := l.cn
	if cn == nil {
		var err error
		if cn, err = dial(l.addr, reqTimeout); err != nil {
			r.end = time.Now()
			return r
		}
	}
	status, body, err := cn.exchange(req.raw, reqTimeout)
	r.end = time.Now()
	if err != nil {
		cn.close()
		l.cn = nil
		return r
	}
	r.out = check(req, status, body)
	if l.keepAlive {
		l.cn = cn
	} else {
		cn.awaitClose(reqTimeout)
		cn.close()
	}
	return r
}

func (l *lane) close() {
	if l.cn != nil {
		l.cn.close()
		l.cn = nil
	}
}
