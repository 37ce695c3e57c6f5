package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"altindex/internal/netproto"
	"altindex/internal/server"
)

// burstLen is the number of commands a served client writes in one
// syscall before it reads the replies: closed loop, one burst in flight
// per connection.
const burstLen = 16

// ioTimeout bounds each client round trip, and each run of deadlineEvery
// bursts, so that a server that stops replying fails the run instead of
// hanging it, while one that is merely slow is still measured.
const ioTimeout = 30 * time.Second

// deadlineEvery is how many bursts share one ioTimeout deadline: setting
// it per burst would arm a timer on the measured path.
const deadlineEvery = 1024

const (
	burstGet = iota
	burstSet
	burstDel
)

// connStream is one connection's fixed sequence of bursts: the request
// bytes, the expected reply bytes, and the keys (for the in-process replay
// of traced runs). Burst i spans req[reqOff[i]:reqOff[i+1]] and
// exp[expOff[i]:expOff[i+1]].
type connStream struct {
	kinds  []uint8
	keys   []uint64 // burstLen per burst
	vals   []uint64 // burstLen per burst; SET values, 0 for GET and DEL
	req    []byte
	reqOff []int
	exp    []byte
	expOff []int
	warm   int // leading bursts that are untimed warm-up
}

func (s *connStream) add(kind uint8, keys, vals []uint64, replies []byte) {
	if len(s.reqOff) == 0 {
		s.reqOff, s.expOff = []int{0}, []int{0}
	}
	s.kinds = append(s.kinds, kind)
	s.keys = append(s.keys, keys...)
	if vals == nil {
		vals = make([]uint64, len(keys))
	}
	s.vals = append(s.vals, vals...)
	for i, k := range keys {
		switch kind {
		case burstGet:
			s.req = append(s.req, "GET "...)
		case burstSet:
			s.req = append(s.req, "SET "...)
		case burstDel:
			s.req = append(s.req, "DEL "...)
		}
		s.req = strconv.AppendUint(s.req, k, 10)
		if kind == burstSet {
			s.req = append(s.req, ' ')
			s.req = strconv.AppendUint(s.req, vals[i], 10)
		}
		s.req = append(s.req, '\n')
	}
	s.exp = append(s.exp, replies...)
	s.reqOff = append(s.reqOff, len(s.req))
	s.expOff = append(s.expOff, len(s.exp))
}

func (s *connStream) bursts() int { return len(s.kinds) }

// appendGetReply appends the reply a GET must get for e.
func appendGetReply(dst []byte, e entry) []byte {
	if !e.live {
		return append(dst, "NIL\n"...)
	}
	dst = append(dst, "VALUE "...)
	dst = strconv.AppendUint(dst, e.val, 10)
	return append(dst, '\n')
}

// client is one closed-loop connection speaking the line protocol.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, rd: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// roundTrip writes req and reads one reply line per expected line of exp;
// it returns how many replies differ from exp.
func (c *client) roundTrip(req, exp []byte) (bad int, err error) {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.conn.Write(req); err != nil {
		return 0, err
	}
	return c.replies(exp)
}

// replies reads one reply line per line of exp and counts the lines that
// differ.
func (c *client) replies(exp []byte) (bad int, err error) {
	for len(exp) > 0 {
		n := bytes.IndexByte(exp, '\n') + 1
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			return bad, err
		}
		if !bytes.Equal(line, exp[:n]) {
			bad++
		}
		exp = exp[n:]
	}
	return bad, nil
}

// run plays bursts [lo, hi) of s, adding failures to r and, with record,
// each burst's round-trip time to r.Reads (GET) or r.Writes (SET, DEL).
func (c *client) run(s *connStream, lo, hi int, r *roundResult, record bool, tr *tracer) error {
	var op, wr, rd spanH
	for i := lo; i < hi; i++ {
		if (i-lo)%deadlineEvery == 0 {
			c.conn.SetDeadline(time.Now().Add(ioTimeout))
		}
		req, exp := s.req[s.reqOff[i]:s.reqOff[i+1]], s.exp[s.expOff[i]:s.expOff[i+1]]
		if tr != nil {
			op = tr.begin(spOp, noSpan)
			wr = tr.begin(spNetWrite, op)
		}
		t0 := time.Now()
		_, err := c.conn.Write(req)
		if tr != nil {
			tr.end(wr)
			rd = tr.begin(spNetRead, op)
		}
		bad := 0
		if err == nil {
			bad, err = c.replies(exp)
		}
		d := since(t0)
		if tr != nil {
			tr.end(rd)
			tr.end(op)
		}
		if err != nil {
			return err
		}
		r.Attempted += burstLen
		r.Failed += bad
		if record {
			if s.kinds[i] == burstGet {
				r.Reads = append(r.Reads, d)
			} else {
				r.Writes = append(r.Writes, d)
			}
		}
	}
	return nil
}

// stats fetches the server's STATS reply.
func (c *client) stats(tr *tracer) (map[string]int64, error) {
	sp := tr.begin(spNetStats, noSpan)
	defer tr.end(sp)
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.conn.Write([]byte("STATS\n")); err != nil {
		return nil, err
	}
	st := map[string]int64{}
	for {
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		f := bytes.Fields(line)
		if len(f) == 1 && string(f[0]) == "END" {
			return st, nil
		}
		if len(f) != 3 || string(f[0]) != "STAT" {
			return nil, fmt.Errorf("bad STATS line %q", line)
		}
		v, err := strconv.ParseInt(string(f[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad STATS line %q", line)
		}
		st[string(f[1])] = v
	}
}

// check reads keys back with MGET and returns how many replies differ
// from want (the reference state of each key).
func (c *client) check(keys []uint64, want func(uint64) entry) (bad int, err error) {
	var req, exp []byte
	for off := 0; off < len(keys); off += 4096 {
		chunk := keys[off:min(off+4096, len(keys))]
		req = append(req[:0], "MGET"...)
		exp = exp[:0]
		for _, k := range chunk {
			req = append(req, ' ')
			req = strconv.AppendUint(req, k, 10)
			exp = appendGetReply(exp, want(k))
		}
		req = append(req, '\n')
		exp = append(exp, "END\n"...)
		n, err := c.roundTrip(req, exp)
		if err != nil {
			return bad, err
		}
		bad += n
	}
	return bad, nil
}

// length returns the server's LEN reply.
func (c *client) length() (int, error) {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := c.conn.Write([]byte("LEN\n")); err != nil {
		return 0, err
	}
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(line)
	if len(f) != 2 || string(f[0]) != "VALUE" {
		return 0, fmt.Errorf("bad LEN reply %q", line)
	}
	return strconv.Atoi(string(f[1]))
}

// served is a running server on a loopback listener.
type served struct {
	srv  *server.Server
	addr string
	done chan error

	once    sync.Once
	stopErr error
}

func startServer(cfg server.Config, tr *tracer, parent spanH) (*served, error) {
	sp := tr.begin(spServerStart, parent)
	srv, err := server.NewServerWith(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return. Later calls
// return the first call's result.
//
// It first makes one round trip, so that Serve has registered its
// listener: a Shutdown that comes before that never closes the listener,
// and Serve then blocks in Accept for good.
func (s *served) stop() error {
	s.once.Do(func() {
		if c, err := dial(s.addr); err == nil {
			c.length()
			c.close()
		}
		s.stopErr = s.srv.Shutdown()
		if err := <-s.done; err != nil && !errors.Is(err, server.ErrServerClosed) {
			s.stopErr = errors.Join(s.stopErr, err)
		}
	})
	return s.stopErr
}

// parseSink keeps the parse loop's results live.
var parseSink uint64

// parseNsPerCmd times netproto.Fields + ParseUint over the measured
// request lines of s, the server's tokenizing work for exactly the
// commands of the run.
func parseNsPerCmd(s *connStream, tr *tracer) float64 {
	var lines [][]byte
	for req := s.req[s.reqOff[s.warm]:]; len(req) > 0; {
		i := bytes.IndexByte(req, '\n')
		lines = append(lines, req[:i])
		req = req[i+1:]
	}
	fields := make([][]byte, 0, 4)
	var sink uint64
	sp := tr.begin(spParse, noSpan)
	t0 := time.Now()
	for _, line := range lines {
		fields = netproto.Fields(fields[:0], line)
		for _, f := range fields[1:] {
			v, _ := netproto.ParseUint(f)
			sink += v
		}
	}
	d := time.Since(t0)
	tr.end(sp)
	parseSink = sink
	return float64(d.Nanoseconds()) / float64(max(len(lines), 1))
}

// netLayers fills the server metrics from STATS snapshots around the
// measured phase.
func netLayers(l map[string]float64, st0, st1 map[string]int64) {
	cmds := float64(max(st1["net_cmds"]-st0["net_cmds"], 1))
	l["server.flushes_per_cmd"] = float64(st1["net_flushes"]-st0["net_flushes"]) / cmds
	l["server.bytes_out_per_cmd"] = float64(st1["net_bytes_out"]-st0["net_bytes_out"]) / cmds
}
