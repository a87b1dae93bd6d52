package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request a workload sends.
type call struct {
	kind   string
	daemon int
	method string // GET or POST
	target string // path and query
	body   []byte
	// check validates a 200 body; it must not retain the slice.
	check func(body []byte) error
}

// sample is one request's outcome. due is when the request was due: its
// scheduled time in an open loop, the moment the client was free in a
// closed loop. Latency is end − due.
type sample struct {
	kind       string
	id         string
	due        time.Time
	dispatched time.Time // when the generator had it ready to send
	sent       time.Time
	end        time.Time
	err        error // transport error, unexpected status or failed check
	refused    bool  // 503 or 429: the daemon shed it
}

func (s sample) ok() bool                   { return s.err == nil }
func (s sample) latency() time.Duration     { return s.end.Sub(s.due) }
func (s sample) lateness() time.Duration    { return s.dispatched.Sub(s.due) }
func (s sample) clientSpan() (int64, int64) { return s.sent.UnixNano(), s.end.UnixNano() }

// client is one generator connection: its own transport, so each
// client holds at most one keep-alive connection per daemon.
type client struct {
	hc    *http.Client
	addrs []string
	buf   bytes.Buffer
}

func newClient(addrs []string) *client {
	return &client{addrs: addrs, hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one call and fills in the sample's send/end times, status
// and error. id, when non-empty, is sent as X-Request-Id.
func (c *client) do(cl call, id string, s *sample) {
	s.kind, s.id = cl.kind, id
	var body io.Reader
	if cl.body != nil {
		body = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, "http://"+c.addrs[cl.daemon]+cl.target, body)
	if err != nil {
		s.sent, s.end, s.err = time.Now(), time.Now(), err
		return
	}
	if id != "" {
		req.Header["X-Request-Id"] = []string{id}
	}
	if cl.body != nil {
		req.Header["Content-Type"] = []string{"application/json"}
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.end, s.err = time.Now(), err
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	switch {
	case err != nil:
		s.err = fmt.Errorf("%s %s: reading body: %w", cl.method, cl.target, err)
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests:
		s.refused = true
		s.err = fmt.Errorf("%s %s: refused with %d", cl.method, cl.target, resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s %s: status %d: %.200s", cl.method, cl.target, resp.StatusCode, c.buf.Bytes())
	case cl.check != nil:
		if err := cl.check(c.buf.Bytes()); err != nil {
			s.err = fmt.Errorf("%s %s: %w", cl.method, cl.target, err)
		}
	}
}

// requestID mints the X-Request-Id of request i of a traced run; ""
// when untraced (the daemon then mints its own).
func requestID(traced bool, prefix string, i int) string {
	if !traced {
		return ""
	}
	return fmt.Sprintf("%s-%d", prefix, i)
}

// closedLoop runs `clients` clients back to back for dur: each takes the
// next call index, sends it, waits for the reply, and repeats. next
// returns false once the inputs run out. It returns the samples in
// completion order per client and the measured wall time.
func closedLoop(ctx context.Context, addrs []string, clients int, dur time.Duration, next func(i int) (call, bool), traced bool, idPrefix string) ([]sample, time.Duration) {
	var idx atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(addrs)
			defer c.close()
			free := time.Now()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				cl, ok := next(i)
				if !ok {
					return
				}
				// The generator's own time between a reply and the next
				// request shows as lateness.
				s := sample{due: free, dispatched: time.Now()}
				c.do(cl, requestID(traced, idPrefix, i), &s)
				per[w] = append(per[w], s)
				free = s.end
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}

// openLoop sends calls[i] at start + i/rate for dur, whether or not
// earlier requests have finished. Each lane has one client; lane(kind)
// picks a request's lane, so slow kinds cannot hold the connection fast
// kinds need. A request waiting for its lane's client keeps its due
// time, so the wait counts in its latency. It returns the samples and
// the measured wall time.
func openLoop(ctx context.Context, addrs []string, lanes int, lane func(kind string) int, dur time.Duration, rate float64, calls []call, traced bool, idPrefix string) ([]sample, time.Duration) {
	type job struct {
		i          int
		due, taken time.Time
	}
	queues := make([]chan job, lanes)
	for l := range queues {
		// Sized to every send, so the generator never blocks on a busy client.
		queues[l] = make(chan job, len(calls))
	}
	start := time.Now()
	go func() {
		defer func() {
			for _, q := range queues {
				close(q)
			}
		}()
		for i := range calls {
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
			if due.Sub(start) >= dur || ctx.Err() != nil {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			queues[lane(calls[i].kind)] <- job{i: i, due: due, taken: time.Now()}
		}
	}()
	per := make([][]sample, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			c := newClient(addrs)
			defer c.close()
			for j := range queues[l] {
				s := sample{due: j.due, dispatched: j.taken}
				c.do(calls[j.i], requestID(traced, idPrefix, j.i), &s)
				per[l] = append(per[l], s)
			}
		}(l)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, wall
}
