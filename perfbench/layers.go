package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"yat/internal/delta"
	"yat/internal/engine"
	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/yatl"
)

// servePool is serve.Config's default lane count. The traced run
// builds the lanes itself (to wrap each in a span) and must match
// what an untraced serve.New builds.
const servePool = 4

// Traced-run shape: the served replay runs for replayShare of
// --seconds (then again untraced for the same ops); refresh-churn's
// replay refreshes once every churnReplayAsks asks, at most
// maxReplayRefreshes times.
const (
	replayShare        = 0.35
	churnReplayAsks    = 200
	maxReplayRefreshes = 16
	// A served replay sends between minReplayOps (two refreshes on
	// refresh-churn) and maxReplayOps ops.
	minReplayOps = 2*churnReplayAsks + 3
	maxReplayOps = 1 << 17
	// A hidden layer is replayed replayAsks times, or as many as fit in
	// replayBudget, but never fewer than minSamples.
	replayAsks   = 2000
	replayBudget = time.Second
	minSamples   = 50
)

// construction is one in-process server on loopback.
type construction struct {
	base string
	hs   *http.Server
	done chan error
}

func (c *construction) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-c.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// build hosts the workload's server in-process, wired as yatserve (or,
// for refresh-churn, the scripted-source server) wires it. A nil
// recorder builds the untraced construction: no wrappers at all.
func build(s *spec, rec *recorder) (*construction, error) {
	c := &construction{done: make(chan error, 1)}
	withSources := s.script != nil
	demand := mediator.WithDemandDriven(true)
	cfg := serve.Config{Prog: s.prog}
	var scripts []*scripted
	var srcs []source.Source
	if withSources {
		scripts = scriptedSources(s.script)
		for _, sc := range scripts {
			if rec != nil {
				srcs = append(srcs, tracedSource{sc, rec})
			} else {
				srcs = append(srcs, sc)
			}
		}
		cfg.Sources = srcs
	} else {
		cfg.Inputs = s.store
	}
	switch {
	case s.shards > 0:
		var fed mediator.Asker
		if rec == nil {
			f, err := federate.New(federate.Config{Programs: []*yatl.Program{s.prog}, Shards: s.shards,
				Inputs: s.store, Options: []engine.Option{demand}})
			if err != nil {
				return nil, err
			}
			fed = f
		} else {
			var children []federate.Child
			for _, p := range federate.PlanShards(s.prog, s.shards) {
				children = append(children, federate.Child{Name: "shard" + strconv.Itoa(p.Index), Functors: p.Functors,
					Asker: &tracedAsker{mediator.New(p.Prog, s.store, demand), rec, "mediator"}})
			}
			f, err := federate.New(federate.Config{Programs: []*yatl.Program{s.prog}, Children: children})
			if err != nil {
				return nil, err
			}
			fed = &tracedAsker{f, rec, "federate"}
		}
		cfg.Askers = []mediator.Asker{fed}
	case rec != nil:
		opts := []engine.Option{demand}
		if withSources {
			opts = append(opts, mediator.WithSources(srcs...))
		}
		for i := 0; i < servePool; i++ {
			lane := &tracedAsker{mediator.New(s.prog, cfg.Inputs, opts...), rec, "mediator"}
			if withSources {
				cfg.Askers = append(cfg.Askers, tracedRefresher{lane})
			} else {
				cfg.Askers = append(cfg.Askers, lane)
			}
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = tracedHandler{rec, h}
	}
	if withSources {
		h = stepper{sc: s.script, srcs: scripts, next: h}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.base = "http://" + ln.Addr().String()
	c.hs = &http.Server{Handler: h}
	go func() { c.done <- c.hs.Serve(ln) }()
	return c, nil
}

func fetchStats(cn *conn) (mediator.StatsView, error) {
	status, body, err := cn.get("/stats")
	if err != nil {
		return mediator.StatsView{}, err
	}
	if status != http.StatusOK {
		return mediator.StatsView{}, fmt.Errorf("GET /stats: status %d", status)
	}
	var st wire.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return mediator.StatsView{}, err
	}
	return st.Mediator, nil
}

// replayOp is one client operation of a replay.
type replayOp struct {
	refresh int // script step, or -1 for an ask
	ask     int // distinct ask index
	span    int // client span id (traced replays)
	dur     time.Duration
	bytes   int
}

// replay sends ops from one client, checking every answer. Refresh
// steps are applied in order, so the version an ask sees is exact.
// With a deadline it stops there, once it has sent minReplayOps;
// otherwise it sends all ops.
func replay(c *construction, rec *recorder, ops []replayOp, orc *oracle, s *spec, deadline time.Time, t *tally) ([]replayOp, error) {
	cn := newConn(c.base)
	defer cn.close()
	bodies := askBodies(s.asks)
	version := 0
	for i := range ops {
		if !deadline.IsZero() && i >= minReplayOps && time.Now().After(deadline) {
			return ops[:i], nil
		}
		op := &ops[i]
		name := "http"
		if rec != nil {
			op.span = rec.begin(name, 0)
		}
		start := time.Now()
		var status int
		var body []byte
		var err error
		if op.refresh >= 0 {
			st := s.script.steps[op.refresh]
			status, body, err = cn.do("POST", "/admin/refresh-source/"+s.script.names[st.Source]+"?step="+strconv.Itoa(op.refresh), nil, op.span)
		} else {
			status, body, err = cn.do("POST", "/ask", bodies[op.ask], op.span)
		}
		op.dur = time.Since(start)
		if rec != nil {
			rec.end(op.span)
		}
		op.bytes = len(body)
		switch {
		case err != nil:
			t.fail("replay op %d: %v", i, err)
		case status != http.StatusOK:
			t.fail("replay op %d: status %d: %.200s", i, status, body)
		case op.refresh >= 0:
			version = op.refresh + 1
			t.ok()
		case !orc.check(op.ask, body, version, version):
			t.fail("replay ask %d at version %d: wrong answer: %.300s", op.ask, version, body)
		default:
			t.ok()
		}
	}
	return ops, nil
}

// replayOps is the workload's seeded op sequence as a single client
// sends it: refresh-churn interleaves a refresh step every
// churnReplayAsks asks.
func replayOps(s *spec, n int) []replayOp {
	ops := make([]replayOp, 0, n)
	step := 0
	for i := 0; len(ops) < n; i++ {
		if s.refreshEvery > 0 && i > 0 && i%churnReplayAsks == 0 && step < maxReplayRefreshes {
			ops = append(ops, replayOp{refresh: step})
			step++
		}
		ops = append(ops, replayOp{refresh: -1, ask: s.op(i)})
	}
	return ops
}

type layerReport struct {
	Attempted, Failed int64
	FirstErr          string            `json:",omitempty"`
	Metrics           map[string]metric `json:"metrics"`
	Shares            map[string]float64
	Dominant          string
	ReplayOps         int
	Notes             []string
}

// layerMetrics are the per-layer metrics of BENCHMARK.json.
var layerMetrics = map[string]string{
	"http.self_us": "us", "serve.self_us": "us", "serve.resp_kb": "kB", "serve.refresh_ms": "ms",
	"federate.ask_us": "us", "federate.merge_us": "us", "federate.hop_us": "us",
	"mediator.ask_us": "us", "mediator.memo_ask_us": "us", "mediator.point_ask_us": "us",
	"mediator.hit_ratio": "ratio", "mediator.refresh_ms": "ms", "mediator.refresh_insert_ms": "ms",
	"mediator.refresh_delete_ms": "ms", "mediator.fallback_ratio": "ratio",
	"mediator.slice_runs_per_refresh": "count", "engine.slice_ms": "ms",
	"engine.activations_per_run": "count", "engine.activations_per_output": "ratio",
	"engine.analyze_ms": "ms", "delta.diff_us": "us", "source.fetch_us": "us",
	"source.fetches_per_refresh": "count", "yatl.parse_pattern_us": "us",
	"share.http": "ratio", "share.serve": "ratio", "share.federate": "ratio", "share.mediator": "ratio",
	"trace.client_p50_us": "us", "trace.untraced_p50_us": "us", "trace.overhead_us": "us",
}

// layers are the layer names spans carry, in report order.
var layers = []string{"http", "serve", "federate", "mediator"}

// session is one single-client replay on a fresh in-process
// construction, with the mediator stats around it.
type session struct {
	ops           []replayOp
	spans         []span
	before, after mediator.StatsView
}

// runSession builds the construction, asks each warm ask once per lane
// (round-robin) so the replay starts with every lane warm, and replays
// ops. A nil recorder runs it untraced.
func runSession(s *spec, orc *oracle, rec *recorder, warm []ask, ops []replayOp, deadline time.Time, t *tally) (*session, error) {
	c, err := build(s, rec)
	if err != nil {
		return nil, err
	}
	cn := newConn(c.base)
	defer cn.close()
	sess := &session{}
	for _, body := range askBodies(warm) {
		for l := 0; l < servePool; l++ {
			if status, resp, err := cn.do("POST", "/ask", body, 0); err != nil || status != http.StatusOK {
				c.close()
				return nil, fmt.Errorf("warm-up ask %s: status %d, %v: %.200s", body, status, err, resp)
			}
		}
	}
	if sess.before, err = fetchStats(cn); err != nil {
		c.close()
		return nil, err
	}
	if sess.ops, err = replay(c, rec, ops, orc, s, deadline, t); err != nil {
		c.close()
		return nil, err
	}
	if sess.after, err = fetchStats(cn); err != nil {
		c.close()
		return nil, err
	}
	if rec != nil {
		sess.spans = rec.snapshot()
	}
	return sess, c.close()
}

// runTraced hosts the workload's construction in-process, replays its
// op sequence under spans, replays it again untraced on an identical
// untraced construction, and times the layers the server hides on
// separately built instances.
func runTraced(cfg runConfig, s *spec) (*layerReport, error) {
	rep := &layerReport{Metrics: map[string]metric{}}
	put := func(name string, v float64) { rep.Metrics[name] = metric{v, layerMetrics[name]} }
	var t tally
	churn := s.refreshEvery > 0
	maxVersion := 0
	if churn {
		maxVersion = maxReplayRefreshes
	}
	orc, err := buildOracle(s, maxVersion)
	if err != nil {
		return nil, err
	}
	replayDur := time.Duration(float64(cfg.seconds) * replayShare * float64(time.Second))
	main, err := runSession(s, orc, newRecorder(), s.asks, replayOps(s, maxReplayOps), time.Now().Add(replayDur), &t)
	if err != nil {
		return nil, err
	}
	plain, err := runSession(s, orc, nil, s.asks, append([]replayOp(nil), main.ops...), time.Time{}, &t)
	if err != nil {
		return nil, err
	}
	rep.ReplayOps = len(main.ops)

	kids := childIndex(main.spans)
	var client, untraced []float64
	perLayer := map[string][]float64{}
	var respBytes, asks float64
	for i, op := range main.ops {
		if op.refresh >= 0 {
			continue
		}
		root := main.spans[op.span-1]
		client = append(client, us(time.Duration(root.dur())))
		untraced = append(untraced, us(plain.ops[i].dur))
		self := layerSelf(root, kids)
		for _, l := range layers {
			perLayer[l] = append(perLayer[l], us(time.Duration(self[l])))
		}
		respBytes += float64(op.bytes)
		asks++
	}
	clientP50, untracedP50 := median(client), median(untraced)
	put("trace.client_p50_us", clientP50)
	put("trace.untraced_p50_us", untracedP50)
	put("trace.overhead_us", clientP50-untracedP50)
	put("serve.resp_kb", respBytes/asks/1000)
	rep.Shares = map[string]float64{}
	for _, l := range layers {
		rep.Shares[l] = median(perLayer[l]) / clientP50
		put("share."+l, rep.Shares[l])
		if rep.Dominant == "" || rep.Shares[l] > rep.Shares[rep.Dominant] {
			rep.Dominant = l
		}
	}
	put("http.self_us", median(perLayer["http"]))
	put("serve.self_us", median(perLayer["serve"]))
	dAsks := float64(main.after.Asks - main.before.Asks)
	put("mediator.ask_us", (main.after.AskTimeMS-main.before.AskTimeMS)*1000/dAsks)
	put("mediator.hit_ratio", float64(main.after.CacheHits-main.before.CacheHits)/dAsks)

	// Refresh side: refresh-churn's own replay; for the other
	// workloads, whose op mix has no refreshes, a shorter replay of the
	// refresh-churn construction, so every workload's traced run times
	// the refresh layers.
	rsess, rs := main, s
	if !churn {
		rs = churnSpec(s.seed)
		rorc, err := buildOracle(rs, probeSteps)
		if err != nil {
			return nil, err
		}
		if rsess, err = runSession(rs, rorc, newRecorder(), rs.warm, replayOps(rs, probeSteps*(churnReplayAsks+1)), time.Time{}, &t); err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("refresh-side metrics come from %d refreshes replayed on the refresh-churn construction", probeSteps))
	}
	var serveRefresh, fetch []float64
	refreshes, fetchesInRefresh := 0.0, 0.0
	refreshReq := map[int]bool{}
	rkids := childIndex(rsess.spans)
	for _, op := range rsess.ops {
		if op.refresh < 0 {
			continue
		}
		refreshes++
		refreshReq[op.span] = true
		for _, k := range rkids[op.span] {
			if k.Name == "serve" {
				serveRefresh = append(serveRefresh, ms(time.Duration(k.dur())))
			}
		}
	}
	for _, sp := range rsess.spans {
		if sp.Name == "source" {
			fetch = append(fetch, us(time.Duration(sp.dur())))
			if refreshReq[sp.Req] {
				fetchesInRefresh++
			}
		}
	}
	put("serve.refresh_ms", median(serveRefresh))
	put("source.fetch_us", median(fetch))
	put("source.fetches_per_refresh", fetchesInRefresh/refreshes)
	dRuns := float64(rsess.after.DeltaRuns - rsess.before.DeltaRuns)
	dFalls := float64(rsess.after.DeltaFallbacks - rsess.before.DeltaFallbacks)
	put("mediator.fallback_ratio", dFalls/(dRuns+dFalls))
	put("mediator.slice_runs_per_refresh", float64(rsess.after.SliceRuns-rsess.before.SliceRuns)/refreshes)

	if err := hiddenLayers(s, put); err != nil {
		return nil, err
	}
	if err := refreshLayers(rs, put); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.FirstErr = t.attempted.Load(), t.failed.Load(), t.firstErr
	return rep, writeJSONFile(filepath.Join(cfg.dir, "spans.json"), map[string][]span{"replay": main.spans, "refresh": rsess.spans})
}

// timeEach returns the median duration of f, in µs, over n calls or
// as many as fit in replayBudget (at least minSamples).
func timeEach(n int, f func(i int) error) (float64, error) {
	xs := make([]float64, 0, n)
	deadline := time.Now().Add(replayBudget)
	for i := 0; i < n && (i < minSamples || time.Now().Before(deadline)); i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		xs = append(xs, us(time.Since(start)))
	}
	return median(xs), nil
}

// hiddenLayers times the layers the server hides by replaying the
// workload's operations on separately built instances.
func hiddenLayers(s *spec, put func(string, float64)) error {
	ctx := context.Background()
	demand := mediator.WithDemandDriven(true)

	v, err := timeEach(20, func(int) error { engine.AnalyzeProgram(s.prog); return nil })
	if err != nil {
		return err
	}
	put("engine.analyze_ms", v/1000)

	var patterns []string
	seen := map[string]bool{}
	for _, a := range s.asks {
		if !seen[a.Pattern] {
			seen[a.Pattern] = true
			patterns = append(patterns, a.Pattern)
		}
	}
	n := max(len(patterns), 200)
	if v, err = timeEach(n, func(i int) error {
		_, err := yatl.ParsePattern(patterns[i%len(patterns)])
		return err
	}); err != nil {
		return err
	}
	put("yatl.parse_pattern_us", v)

	// Ask memo and memo-miss point lookups on one warm demand mediator.
	m := mediator.New(s.prog, s.store, demand)
	for _, a := range append(append([]ask(nil), s.warm...), s.asks...) {
		if _, err := m.AskContext(ctx, a.Pattern, a.Functors...); err != nil {
			return err
		}
	}
	if v, err = timeEach(replayAsks, func(i int) error {
		a := s.asks[s.op(i)]
		_, err := m.AskContext(ctx, a.Pattern, a.Functors...)
		return err
	}); err != nil {
		return err
	}
	put("mediator.memo_ask_us", v)
	points := s.points
	if len(points) > replayAsks {
		points = points[:replayAsks]
	}
	// A fresh mediator, warmed with the rule-caching asks only, so
	// every point lookup misses the memo but hits the rule cache.
	pm := mediator.New(s.prog, s.store, demand)
	for _, a := range s.warm {
		if _, err := pm.AskContext(ctx, a.Pattern, a.Functors...); err != nil {
			return err
		}
	}
	if v, err = timeEach(len(points), func(i int) error {
		_, err := pm.AskContext(ctx, points[i].Pattern, points[i].Functors...)
		return err
	}); err != nil {
		return err
	}
	put("mediator.point_ask_us", v)

	return federationLayers(s, put)
}

// timePair asks asks in op order on two askers in turn, like timeEach,
// after one untimed pass over asks on each, and returns both medians
// in µs. Alternating puts both under the same machine conditions.
func timePair(asks []ask, op func(int) int, x, y mediator.Asker) (float64, float64, error) {
	ctx := context.Background()
	pair := []mediator.Asker{x, y}
	for _, a := range asks {
		for _, m := range pair {
			if _, err := m.AskContext(ctx, a.Pattern, a.Functors...); err != nil {
				return 0, 0, err
			}
		}
	}
	var tx, ty []float64
	deadline := time.Now().Add(replayBudget)
	for i := 0; i < replayAsks && (i < minSamples || time.Now().Before(deadline)); i++ {
		a := asks[op(i)]
		for k, m := range pair {
			start := time.Now()
			if _, err := m.AskContext(ctx, a.Pattern, a.Functors...); err != nil {
				return 0, 0, err
			}
			if d := us(time.Since(start)); k == 0 {
				tx = append(tx, d)
			} else {
				ty = append(ty, d)
			}
		}
	}
	return median(tx), median(ty), nil
}

// federationLayers times a 2-shard federation against one unsharded
// mediator (merge) and a loopback shard client against the same child
// in-process (hop), on the workload's asks.
func federationLayers(s *spec, put func(string, float64)) error {
	demand := mediator.WithDemandDriven(true)
	fed, err := federate.New(federate.Config{Programs: []*yatl.Program{s.prog}, Shards: 2,
		Inputs: s.store, Options: []engine.Option{demand}})
	if err != nil {
		return err
	}
	fedP50, singleP50, err := timePair(s.asks, s.op, fed, mediator.New(s.prog, s.store, demand))
	if err != nil {
		return err
	}
	put("federate.ask_us", fedP50)
	put("federate.merge_us", fedP50-singleP50)

	plan := federate.PlanShards(s.prog, 2)[0]
	owned := map[string]bool{}
	for _, f := range plan.Functors {
		owned[f] = true
	}
	var hopAsks []ask
	for _, a := range s.asks {
		switch {
		case len(a.Functors) == 0:
			hopAsks = append(hopAsks, ask{a.Pattern, plan.Functors})
		case owned[a.Functors[0]]:
			hopAsks = append(hopAsks, a)
		}
	}
	if len(hopAsks) == 0 {
		return errors.New("no ask routes to shard 0")
	}
	child := mediator.New(plan.Prog, s.store, demand)
	srv, err := serve.New(serve.Config{Prog: plan.Prog, Askers: []mediator.Asker{child}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c := &construction{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { c.done <- c.hs.Serve(ln) }()
	client := federate.NewClient(c.base, nil)
	remote, local, err := timePair(hopAsks, func(i int) int { return i % len(hopAsks) }, client, child)
	client.Close()
	if cerr := c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	put("federate.hop_us", remote-local)
	return nil
}

// refreshLayers replays refresh-churn's script on one demand mediator,
// and times the engine slice runs and store diffs each step implies.
func refreshLayers(s *spec, put func(string, float64)) error {
	ctx := context.Background()
	steps := probeSteps
	srcs := scriptedSources(s.script)
	var opts []source.Source
	for _, sc := range srcs {
		opts = append(opts, sc)
	}
	m := mediator.New(s.prog, nil, mediator.WithDemandDriven(true), mediator.WithSources(opts...))
	warm := func() error {
		for _, a := range s.warm {
			if _, err := m.AskContext(ctx, a.Pattern, a.Functors...); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(); err != nil {
		return err
	}
	var all, ins, del []float64
	for k := 0; k < steps; k++ {
		st := s.script.steps[k]
		srcs[st.Source].cur.Store(int64(k + 1))
		start := time.Now()
		if err := m.RefreshSource(ctx, s.script.names[st.Source]); err != nil {
			return err
		}
		d := ms(time.Since(start))
		all = append(all, d)
		if st.insertion() {
			ins = append(ins, d)
		} else {
			del = append(del, d)
		}
		if err := warm(); err != nil {
			return err
		}
	}
	put("mediator.refresh_ms", median(all))
	put("mediator.refresh_insert_ms", median(ins))
	put("mediator.refresh_delete_ms", median(del))

	facts := engine.AnalyzeProgram(s.prog)
	var sliceT, diffT, acts []float64
	var totalActs, totalOut float64
	for k := 0; k < steps; k++ {
		st := s.script.steps[k]
		store := s.script.merged(k + 1)
		fs, _ := s.affected(st)
		for _, f := range fs {
			start := time.Now()
			res, err := engine.RunSlice(ctx, s.prog, store, facts.SliceFor(f), engine.WithFacts(facts))
			if err != nil {
				return err
			}
			sliceT = append(sliceT, ms(time.Since(start)))
			acts = append(acts, float64(res.Stats.Activations))
			totalActs += float64(res.Stats.Activations)
			totalOut += float64(res.Stats.Outputs)
		}
		prev, next := s.script.versions[k][st.Source], s.script.versions[k+1][st.Source]
		for r := 0; r < 5; r++ {
			start := time.Now()
			delta.Diff(prev, next)
			diffT = append(diffT, us(time.Since(start)))
		}
	}
	put("engine.slice_ms", median(sliceT))
	put("engine.activations_per_run", median(acts))
	put("engine.activations_per_output", totalActs/totalOut)
	put("delta.diff_us", median(diffT))
	return nil
}

func printLayers(w io.Writer, rep *layerReport) {
	fmt.Fprintf(w, "per-layer metrics (traced replay of %d ops; spans in spans.json)\n", rep.ReplayOps)
	keys := sortedKeys(rep.Metrics)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*rep.Shares[l]))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "  layer self time as a share of the traced client median: %v\n", parts)
	fmt.Fprintf(w, "  dominant layer: %s\n", rep.Dominant)
	fmt.Fprintf(w, "  tracing overhead: client p50 %.1f us traced vs %.1f us untraced\n",
		rep.Metrics["trace.client_p50_us"].Value, rep.Metrics["trace.untraced_p50_us"].Value)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if rep.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rep.FirstErr)
	}
}
