package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one client connection: a keep-alive transport capped at a
// single TCP connection, so "n connections" means exactly n sockets.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *conn) close() { c.client.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// aliases the connection's buffer and is valid until the next call.
// A positive span is forwarded so an in-process server can parent its
// spans under the client's.
func (c *conn) do(method, path string, body []byte, span int) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, nil, 0) }

// tally counts operations attempted and failed across every phase.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// qpsWindow is the width of the windows closedLoop counts completions
// in; a loop shorter than one window is one window.
const qpsWindow = 500 * time.Millisecond

// closedLoop runs every connection back to back for dur: each sends
// its next op as soon as the previous one returns. It reports how many
// ops succeeded and the rate of successes in each qpsWindow.
func closedLoop(dur time.Duration, conns []*conn, op func(c *conn, i int) bool) (int, []float64) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	width := qpsWindow
	if dur < width {
		width = dur
	}
	nWin := int(dur / width)
	counts := make([][]int, len(conns))
	var wg sync.WaitGroup
	for w, c := range conns {
		counts[w] = make([]int, nWin)
		wg.Add(1)
		go func(c *conn, counts []int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if op(c, int(next.Add(1)-1)) {
					if k := int(time.Since(start) / width); k < nWin {
						counts[k]++
					}
				}
			}
		}(c, counts[w])
	}
	wg.Wait()
	total := 0
	rates := make([]float64, nWin)
	for _, cs := range counts {
		for k, n := range cs {
			rates[k] += float64(n) / width.Seconds()
			total += n
		}
	}
	return total, rates
}

// pacedResult is an open-loop phase's record.
type pacedResult struct {
	latency   []float64 // per op k: ms from due time to completion, NaN if it failed
	lateness  []float64 // ms the generator handed each op over after its due time
	abandoned int       // ops still queued when the drain grace ran out
}

// drainGrace bounds how long a paced phase waits for queued ops past
// its end; ops still queued then count as failed.
const drainGrace = 5 * time.Second

// pacedLoop runs an open loop: op k is due at start + k/rate for
// k < rate·dur. A generator hands each op to the connections when it
// falls due, whether or not earlier ops have returned, so a stall
// shows as latency of the ops queued behind it. Latency is timed from
// the due time, not the send time.
func pacedLoop(start time.Time, rate float64, dur time.Duration, conns []*conn, op func(c *conn, k int) bool) pacedResult {
	type job struct {
		k   int
		due time.Time
	}
	n := int(rate * dur.Seconds())
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	lateness := make([]float64, 0, n)
	go func() {
		defer close(jobs)
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lateness = append(lateness, ms(time.Since(due)))
			jobs <- job{k, due}
		}
	}()
	res := pacedResult{latency: make([]float64, n)}
	for k := range res.latency {
		res.latency[k] = math.NaN()
	}
	var abandoned atomic.Int64
	cutoff := start.Add(dur + drainGrace)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range jobs {
				if time.Now().After(cutoff) {
					abandoned.Add(1)
					continue
				}
				if op(c, j.k) {
					res.latency[j.k] = ms(time.Since(j.due))
				}
			}
		}(c)
	}
	wg.Wait()
	// The generator closed jobs before the workers' ranges ended, so
	// its appends to lateness happened before this read.
	res.lateness = lateness
	res.abandoned = int(abandoned.Load())
	return res
}

// latenessBound is the most the generator may fall behind its schedule
// at the 99th percentile before a paced phase stops being an open loop
// at the stated rate. A run past it is reported invalid, not measured.
const latenessBound = 25.0 // ms

// checkLateness rejects a paced phase whose generator stalled.
func checkLateness(lateness []float64) error {
	if len(lateness) == 0 {
		return nil
	}
	xs := append([]float64(nil), lateness...)
	if p99 := percentile(xs, 99); p99 > latenessBound {
		return fmt.Errorf("generator lateness p99 %.2f ms exceeds the %.0f ms bound (max %.2f ms): the load was not sent on schedule",
			p99, latenessBound, xs[len(xs)-1])
	}
	return nil
}
