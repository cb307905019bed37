package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/serve/wire"
)

// setupBoots is how many times a run boots the server to measure
// setup_s; the first boot serves the load.
const setupBoots = 5

// A run is an untimed closed-loop warm-up, then rounds of a closed-loop
// slice taking closedShare of --seconds/rounds and a paced slice
// taking the rest.
const (
	closedShare = 0.4
	warmup      = time.Second
	rounds      = 8
	quietSteal  = 0.02
	// settle is an idle gap before each paced slice, so it does not
	// start inside the closed loop's backlog and garbage.
	settle = 200 * time.Millisecond
)

// e2eRun drives one workload against a server process.
type e2eRun struct {
	s      *spec
	orc    *oracle
	bodies [][]byte // POST /ask body per distinct ask
	t      tally
	// Refreshes sent and completed so far: an ask sent after done
	// refreshes and answered before started+1 were sent may see any
	// version in [done, started].
	refreshStarted, refreshDone atomic.Int64
}

// askBodies encodes each ask as a POST /ask body.
func askBodies(asks []ask) [][]byte {
	out := make([][]byte, len(asks))
	for i, a := range asks {
		b, err := json.Marshal(wire.AskRequest{Pattern: a.Pattern, Functors: a.Functors})
		if err != nil {
			panic(err) // strings and string slices always marshal
		}
		out[i] = b
	}
	return out
}

// ask sends distinct ask ai to the server under load and checks the
// answer against the oracle.
func (r *e2eRun) ask(c *conn, ai int) bool { return r.askAt(c, ai, false) }

// askAt is ask; fresh means a server just booted, which serves the
// sources' first version whatever the load's server has reached.
func (r *e2eRun) askAt(c *conn, ai int, fresh bool) bool {
	lo := int(r.refreshDone.Load())
	status, body, err := c.do("POST", "/ask", r.bodies[ai], 0)
	hi := int(r.refreshStarted.Load())
	if fresh {
		lo, hi = 0, 0
	}
	switch {
	case err != nil:
		r.t.fail("ask %d: %v", ai, err)
	case status != 200:
		r.t.fail("ask %d: status %d: %.200s", ai, status, body)
	case !r.orc.check(ai, body, lo, hi):
		r.t.fail("ask %d (%s %v): wrong answer for versions %d..%d: %.300s",
			ai, r.s.asks[ai].Pattern, r.s.asks[ai].Functors, lo, hi, body)
	default:
		r.t.ok()
		return true
	}
	return false
}

// refresh sends scripted refresh step k.
func (r *e2eRun) refresh(c *conn, k int) bool {
	st := r.s.script.steps[k]
	r.refreshStarted.Add(1)
	status, body, err := c.do("POST", "/admin/refresh-source/"+r.s.script.names[st.Source]+"?step="+strconv.Itoa(k), nil, 0)
	r.refreshDone.Add(1)
	switch {
	case err != nil:
		r.t.fail("refresh %d: %v", k, err)
	case status != 200:
		r.t.fail("refresh %d: status %d: %.200s", k, status, body)
	default:
		r.t.ok()
		return true
	}
	return false
}

// boot starts a server and returns it with its setup time: from exec
// until every distinct ask has been answered correctly once.
func (r *e2eRun) boot(cmd []string, logPath string) (*proc, float64, error) {
	start := time.Now()
	p, err := startProc(cmd[0], cmd[1:], logPath)
	if err != nil {
		return nil, 0, err
	}
	conns := []*conn{newConn(p.base), newConn(p.base)}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	if err := p.waitReady(conns[0], 60*time.Second); err != nil {
		p.stop()
		return nil, 0, err
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for ai := w; ai < len(r.s.asks); ai += len(conns) {
				if !r.askAt(c, ai, true) {
					bad.Add(1)
				}
			}
		}(w, c)
	}
	wg.Wait()
	setup := time.Since(start).Seconds()
	if bad.Load() > 0 {
		p.stop()
		return nil, 0, fmt.Errorf("boot: %d distinct asks failed: %s", bad.Load(), r.t.firstErr)
	}
	return p, setup, nil
}

// e2eReport is everything an untraced run measured.
type e2eReport struct {
	Setups       []float64   `json:"setup_s_boots"`
	MaxQPS       float64     `json:"max_qps"`
	ClosedAsks   int         `json:"closed_asks"`
	PacedRate    float64     `json:"paced_rate"`
	PacedSamples int         `json:"paced_samples"`
	P50, P99     float64     `json:"-"`
	RoundSteal   []float64   `json:"round_steal_frac"`
	RoundQPS     [][]float64 `json:"round_qps"`        // closed-loop rate per qpsWindow
	RoundLatency [][]float64 `json:"round_latency_ms"` // paced asks, due-time order
	QuietRounds  []int       `json:"quiet_rounds"`
	StealFrac    float64     `json:"host_steal_frac"`
	RefreshIns   []float64   `json:"refresh_insert_ms_samples,omitempty"`
	RefreshDel   []float64   `json:"refresh_delete_ms_samples,omitempty"`
	LateP50      float64     `json:"lateness_p50_ms"`
	LateP99      float64     `json:"lateness_p99_ms"`
	LateMax      float64     `json:"lateness_max_ms"`
	RSSMB        float64     `json:"rss_mb"`
	Attempted    int64       `json:"attempted"`
	Failed       int64       `json:"failed"`
	FirstErr     string      `json:"first_error,omitempty"`
	Invalid      string      `json:"invalid,omitempty"`
}

// runE2E measures a workload against server processes. It boots the
// server, warms it, then runs rounds of a closed-loop slice (max_qps)
// and a paced open-loop slice (p50_ms, p99_ms) over nproc = 2
// connections; between rounds it boots and stops extra servers, the
// rest of the setup_s samples. Interleaving spreads every metric's
// samples over the whole run, and the load metrics are taken over the
// quiet half of the rounds (see quietRounds). refresh-churn dedicates
// one connection to its refresh schedule for the whole window.
func runE2E(cfg runConfig, s *spec) (*e2eReport, error) {
	total := time.Duration(cfg.seconds) * time.Second
	maxVersion := 0
	if s.refreshEvery > 0 {
		maxVersion = int(total / s.refreshEvery)
		if maxVersion > len(s.script.steps) {
			return nil, fmt.Errorf("--seconds %d needs %d refresh steps, the script has %d", cfg.seconds, maxVersion, len(s.script.steps))
		}
	}
	if err := s.writeInputs(cfg.dir); err != nil {
		return nil, err
	}
	orc, err := buildOracle(s, maxVersion)
	if err != nil {
		return nil, err
	}
	r := &e2eRun{s: s, orc: orc, bodies: askBodies(s.asks)}
	cmd := serverCommand(cfg, s)
	rep := &e2eReport{PacedRate: s.rate}
	stealStart := readSteal()
	boots := 0
	boot := func() (*proc, error) {
		var p *proc
		var setup float64
		var err error
		// A boot can lose its port to another process between
		// freeAddr and the server's listen; two more tries with new
		// ports tell that apart from a server that cannot start.
		for try := 0; try < 3; try++ {
			p, setup, err = r.boot(cmd, filepath.Join(cfg.dir, fmt.Sprintf("server%d-%d.log", boots, try)))
			if err == nil || !errors.Is(err, errExited) {
				break
			}
		}
		boots++
		if err == nil {
			rep.Setups = append(rep.Setups, setup)
		}
		return p, err
	}
	p, err := boot()
	if err != nil {
		return nil, err
	}
	defer p.stop()

	// Warm every lane before timing: the boot answered each distinct
	// ask once, which leaves lanes of a pool cold.
	warmConns := []*conn{newConn(p.base), newConn(p.base)}
	var warmNext atomic.Int64
	closedLoop(warmup, warmConns, func(c *conn, _ int) bool { return r.ask(c, s.op(int(warmNext.Add(1)-1))) })
	for _, c := range warmConns {
		c.close()
	}

	askConns := []*conn{newConn(p.base), newConn(p.base)}
	defer func() {
		for _, c := range askConns {
			c.close()
		}
	}()
	var refreshRes pacedResult
	var refreshWG sync.WaitGroup
	if s.refreshEvery > 0 {
		refreshConn := askConns[1]
		askConns = askConns[:1]
		refreshWG.Add(1)
		go func() {
			defer refreshWG.Done()
			refreshRes = pacedLoop(time.Now(), 1/s.refreshEvery.Seconds(), total, []*conn{refreshConn}, r.refresh)
		}()
	}
	var next atomic.Int64
	opAsk := func(c *conn, _ int) bool { return r.ask(c, s.op(int(next.Add(1)-1))) }
	closedDur := time.Duration(float64(total) * closedShare / rounds)
	pacedDur := time.Duration(float64(total) * (1 - closedShare) / rounds)
	var lateness []float64
	abandoned := 0
	// A round counts as quiet when the host took under quietSteal of
	// the CPU. While fewer than half the rounds are quiet, up to
	// rounds/2 extra rounds give a passing burst of steal time to end.
	quiet := 0
	for round := 0; round < rounds || (quiet < (rounds+1)/2 && round < rounds+rounds/2); round++ {
		stealAt := readSteal()
		n, qps := closedLoop(closedDur, askConns, opAsk)
		rep.ClosedAsks += n
		rep.RoundQPS = append(rep.RoundQPS, qps)
		time.Sleep(settle)
		paced := pacedLoop(time.Now(), s.rate, pacedDur, askConns, opAsk)
		var lat []float64
		for _, l := range paced.latency {
			if !math.IsNaN(l) {
				lat = append(lat, l)
			}
		}
		rep.RoundLatency = append(rep.RoundLatency, lat)
		lateness = append(lateness, paced.lateness...)
		abandoned += paced.abandoned
		rep.RoundSteal = append(rep.RoundSteal, readSteal().since(stealAt))
		if rep.RoundSteal[round] < quietSteal {
			quiet++
		}
		if len(rep.Setups) < setupBoots && round%(rounds/(setupBoots-1)) == rounds/(setupBoots-1)-1 {
			extra, err := boot()
			if err != nil {
				return nil, err
			}
			extra.stop()
		}
	}
	refreshWG.Wait()

	rep.RSSMB, err = p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.StealFrac = readSteal().since(stealStart)
	rep.QuietRounds = quietRounds(rep.RoundSteal, (rounds+1)/2)
	rep.loadMetrics()
	for k, l := range refreshRes.latency {
		if math.IsNaN(l) {
			continue
		}
		if s.script.steps[k].insertion() {
			rep.RefreshIns = append(rep.RefreshIns, l)
		} else {
			rep.RefreshDel = append(rep.RefreshDel, l)
		}
	}
	late := append(append([]float64(nil), lateness...), refreshRes.lateness...)
	rep.LateP50 = percentile(late, 50)
	rep.LateP99 = percentile(late, 99)
	rep.LateMax = percentile(late, 100)
	for i := 0; i < abandoned+refreshRes.abandoned; i++ {
		r.t.fail("op still queued %v after its paced slice ended", drainGrace)
	}
	if err := checkLateness(lateness); err != nil {
		rep.Invalid = "asks: " + err.Error()
	} else if err := checkLateness(refreshRes.lateness); err != nil {
		rep.Invalid = "refreshes: " + err.Error()
	}
	rep.Attempted, rep.Failed, rep.FirstErr = r.t.attempted.Load(), r.t.failed.Load(), r.t.firstErr
	return rep, nil
}

// serverCommand is the server process of a workload: yatserve over
// the generated store for hot-ask and fanout-ask (every knob at its
// default but -shards), this benchmark's own scripted-source server
// for refresh-churn.
func serverCommand(cfg runConfig, s *spec) []string {
	if s.refreshEvery > 0 {
		return []string{cfg.self, "-serve-churn", cfg.dir}
	}
	cmd := []string{cfg.yatserve, "-program", filepath.Join(cfg.dir, "program.yatl"),
		"-input", filepath.Join(cfg.dir, "store.yat")}
	if s.shards > 0 {
		cmd = append(cmd, "-shards", strconv.Itoa(s.shards))
	}
	return cmd
}

// metrics are the end-to-end metrics of BENCHMARK.json.
func (rep *e2eReport) metrics() map[string]metric {
	return map[string]metric{
		"setup_s": {median(append([]float64(nil), rep.Setups...)), "s"},
		"max_qps": {rep.MaxQPS, "1/s"},
		"p50_ms":  {rep.P50, "ms"},
		"p99_ms":  {rep.P99, "ms"},
		"rss_mb":  {rep.RSSMB, "MiB"},
	}
}

// loadMetrics computes max_qps, p50_ms and p99_ms over the quiet
// rounds: the median closed-loop window rate, and the percentiles of
// their paced asks pooled.
func (rep *e2eReport) loadMetrics() {
	var qps, lat []float64
	for _, i := range rep.QuietRounds {
		qps = append(qps, rep.RoundQPS[i]...)
		lat = append(lat, rep.RoundLatency[i]...)
	}
	rep.MaxQPS = median(qps)
	rep.PacedSamples = len(lat)
	rep.P50 = percentile(lat, 50)
	rep.P99 = percentile(lat, 99)
}

// quietRounds returns, in run order, the rounds during which the
// hypervisor took under quietSteal of this VM's CPU, or, when fewer
// than n were that quiet, the n rounds with the least steal (ties go
// to the earlier round). On a shared host a neighbour can take a tenth
// of the VM's CPU for minutes, which inflates every latency and
// deflates throughput by far more than any change a bound could
// catch; measuring the quiet rounds keeps such a stretch from deciding
// the run, while a run on a quiet host keeps every round.
func quietRounds(steal []float64, n int) []int {
	var quiet []int
	for i, st := range steal {
		if st < quietSteal {
			quiet = append(quiet, i)
		}
	}
	if len(quiet) >= n {
		return quiet
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	kept := idx[:min(n, len(idx))]
	sort.Ints(kept)
	return kept
}
