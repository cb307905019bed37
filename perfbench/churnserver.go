package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"yat/internal/library"
	"yat/internal/serve"
	"yat/internal/source"
	"yat/internal/tree"
)

// scripted is a source whose content is one version of a refresh
// script, switched by the step middleware.
type scripted struct {
	name     string
	idx      int
	versions [][]*tree.Store // shared script versions, [step][source]
	cur      atomic.Int64
}

func (s *scripted) Name() string { return s.name }

func (s *scripted) Fetch(ctx context.Context) (*tree.Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.versions[s.cur.Load()][s.idx], nil
}

func scriptedSources(sc *script) []*scripted {
	out := make([]*scripted, len(sc.names))
	for i, n := range sc.names {
		out[i] = &scripted{name: n, idx: i, versions: sc.versions}
	}
	return out
}

// stepper applies script step k to its source before passing
// POST /admin/refresh-source/{name}?step=k on, so the refresh the
// server performs fetches the step's new version.
type stepper struct {
	sc   *script
	srcs []*scripted
	next http.Handler
}

func (h stepper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if name, ok := strings.CutPrefix(r.URL.Path, "/admin/refresh-source/"); ok && r.URL.Query().Has("step") {
		k, err := strconv.Atoi(r.URL.Query().Get("step"))
		if err != nil || k < 0 || k >= len(h.sc.steps) || h.sc.names[h.sc.steps[k].Source] != name {
			http.Error(w, "bad step for source "+name, http.StatusBadRequest)
			return
		}
		h.srcs[h.sc.steps[k].Source].cur.Store(int64(k + 1))
	}
	h.next.ServeHTTP(w, r)
}

// serveChurn is the refresh-churn server process: serve.New over the
// scripted sources in dir, every serve knob at its default, until
// SIGTERM.
func serveChurn(addr, dir string) error {
	prog, err := library.LoadProgram(filepath.Join(dir, "program.yatl"))
	if err != nil {
		return err
	}
	sc, err := readScript(dir)
	if err != nil {
		return err
	}
	srcs := scriptedSources(sc)
	cfg := serve.Config{Prog: prog, Logf: log.New(os.Stderr, "", log.LstdFlags).Printf}
	for _, s := range srcs {
		cfg.Sources = append(cfg.Sources, source.Source(s))
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: stepper{sc: sc, srcs: srcs, next: srv.Handler()}}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
