package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"yat/internal/mediator"
	"yat/internal/tree"
)

// spanHeader carries the client span's id to an in-process server, so
// the server's spans of one request share its request id.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Req is the id of the
// request's root span; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	req := id
	if parent > 0 && parent <= len(r.spans) {
		req = r.spans[parent-1].Req
	} else {
		parent = 0
	}
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: now})
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap (a federation scatters to
// its shards concurrently); overlapping time is subtracted once.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.dur() - covered
}

// layerSelf sums, per layer name, the self time of every span in the
// tree rooted at root.
func layerSelf(root span, children map[int][]span) map[string]int64 {
	out := map[string]int64{}
	var walk func(s span)
	walk = func(s span) {
		kids := children[s.ID]
		out[s.Name] += selfTime(s, kids)
		for _, k := range kids {
			walk(k)
		}
	}
	walk(root)
	return out
}

func childIndex(spans []span) map[int][]span {
	idx := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			idx[s.Parent] = append(idx[s.Parent], s)
		}
	}
	return idx
}

// tracedHandler records a "serve" span around the server's handler.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.rec.begin("serve", parent)
	h.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
	h.rec.end(id)
}

// tracedAsker records a span named layer around every ask into a pool
// lane or federation child, and keeps the optional capabilities the
// server discovers by type assertion (generation, source refresh).
type tracedAsker struct {
	mediator.Asker
	rec   *recorder
	layer string
}

func (a *tracedAsker) Ask(p string, fs ...string) ([]mediator.Answer, error) {
	return a.AskContext(context.Background(), p, fs...)
}

func (a *tracedAsker) AskContext(ctx context.Context, p string, fs ...string) ([]mediator.Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	id := a.rec.begin(a.layer, spanOf(ctx))
	out, err := a.Asker.AskContext(withSpan(ctx, id), p, fs...)
	a.rec.end(id)
	return out, err
}

func (a *tracedAsker) Generation() int64 {
	return a.Asker.(interface{ Generation() int64 }).Generation()
}

// tracedRefresher is a traced lane over a mediator with sources.
type tracedRefresher struct{ *tracedAsker }

func (a tracedRefresher) RefreshSource(ctx context.Context, name string) error {
	id := a.rec.begin(a.layer, spanOf(ctx))
	err := a.Asker.(*mediator.Mediator).RefreshSource(withSpan(ctx, id), name)
	a.rec.end(id)
	return err
}

// tracedSource records a "source" span around every Fetch.
type tracedSource struct {
	*scripted
	rec *recorder
}

func (s tracedSource) Fetch(ctx context.Context) (*tree.Store, error) {
	id := s.rec.begin("source", spanOf(ctx))
	st, err := s.scripted.Fetch(ctx)
	s.rec.end(id)
	return st, err
}
