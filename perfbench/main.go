// Perfbench is the repository's end-to-end and per-layer benchmark of
// the mediator service.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds cmd/yatserve and this program from the checkout, then
// runs it from the checkout root. Workloads:
//
//	hot-ask        yatserve, selective:8 over 400 brochures; asks rotate
//	               over Pview1..8, so after warm-up every ask is a memo
//	               hit and the time is HTTP, serve and encoding
//	fanout-ask     the same store behind yatserve -shards 2, bare asks:
//	               large responses and the federation scatter/merge
//	refresh-churn  PartitionedProgram(16) over 4 scripted sources; point
//	               lookups on one connection, a refresh every second on
//	               the other, alternating 5 deletions and 5 insertions
//
// BENCHMARK.json gates on hot-ask and fanout-ask only: refresh-churn's
// ask tail is set by the few deletion refreshes of a run, each a
// GC-heavy slice re-run on every lane, and varies too much between
// runs to gate on. Its refresh layers are still timed in every traced
// run, on a single-client replay of its construction.
//
// With --trace 0 a run boots a server process five times (setup_s is
// the median), then drives the last boot over two connections: a
// closed loop (max_qps) and a paced open loop at a fixed rate (p50_ms,
// p99_ms, timed from each ask's due time). With --trace 1 it hosts the
// same construction in-process, replays the workload's ops from one
// client under spans, replays the layers the server hides on
// separately built instances, and prints the per-layer metrics. Every
// answer is checked against a reference built by another execution
// path; any mismatch fails the run. The last line of standard output
// is the JSON result; inputs, server logs, result.json and spans.json
// go under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	seconds  int
	yatserve string // yatserve binary
	self     string // this binary, which also serves refresh-churn
	dir      string // per-run scratch directory inside the checkout
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "", "workload: hot-ask, fanout-ask or refresh-churn")
		seed     = fs.Uint64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 10, "measured seconds per run")
		traceOn  = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		yatserve = fs.String("yatserve", "", "yatserve binary (end-to-end runs)")
		out      = fs.String("out", ".bench_build/perfbench", "directory for inputs, logs, results and spans")
		churnDir = fs.String("serve-churn", "", "run the refresh-churn server over the inputs in this directory")
		addr     = fs.String("addr", "127.0.0.1:0", "listen address (with -serve-churn)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *churnDir != "" {
		if err := serveChurn(*addr, *churnDir); err != nil {
			fmt.Fprintln(stderr, "perfbench serve-churn:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	s, err := newSpec(*wl, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	root, _ := os.Getwd()
	cfg := runConfig{seconds: *seconds, yatserve: *yatserve, self: self,
		dir: filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *traceOn))}
	st := newStamp(root, *wl, *seed, *seconds, *traceOn)
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	var res result
	var detail any
	var invalid string
	if *traceOn == 0 {
		if *yatserve == "" {
			fmt.Fprintln(stderr, "perfbench: --yatserve is required for end-to-end runs")
			return 2
		}
		rep, err := runE2E(cfg, s)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res = result{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.metrics()}
		invalid = rep.Invalid
		detail = rep
		printE2E(stdout, s, rep)
	} else {
		rep, err := runTraced(cfg, s)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		res = result{Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics}
		detail = rep
		printLayers(stdout, rep)
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stdout, "INVALID run, not a measurement: metric %s has no samples\n", name)
			return 3
		}
	}
	if err := writeJSONFile(filepath.Join(cfg.dir, "result.json"), map[string]any{
		"stamp": st, "result": res, "detail": detail, "invalid": invalid}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if invalid != "" {
		fmt.Fprintln(stdout, "INVALID run, not a measurement:", invalid)
		return 3
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printE2E(w io.Writer, s *spec, rep *e2eReport) {
	m := rep.metrics()
	fmt.Fprintf(w, "%s: end to end over 2 connections\n", s.name)
	fmt.Fprintf(w, "  %-18s %12.4f %-5s (median of %d boots: %.4f)\n", "setup_s", m["setup_s"].Value, "s", len(rep.Setups), rep.Setups)
	fmt.Fprintf(w, "  %-18s %12.1f %-5s (closed loop, %d asks; median %v window)\n", "max_qps", rep.MaxQPS, "1/s", rep.ClosedAsks, qpsWindow)
	fmt.Fprintf(w, "  %-18s %12.4f %-5s (paced %.0f/s, %d asks)\n", "p50_ms", rep.P50, "ms", rep.PacedRate, rep.PacedSamples)
	fmt.Fprintf(w, "  %-18s %12.4f %-5s\n", "p99_ms", rep.P99, "ms")
	if s.refreshEvery > 0 {
		ins, del := append([]float64(nil), rep.RefreshIns...), append([]float64(nil), rep.RefreshDel...)
		fmt.Fprintf(w, "  %-18s %12.4f %-5s (median of %d)\n", "refresh_insert_ms", median(ins), "ms", len(ins))
		fmt.Fprintf(w, "  %-18s %12.4f %-5s (median of %d)\n", "refresh_delete_ms", median(del), "ms", len(del))
	}
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-18s %12.6f %-5s (%d of %d operations)\n", "failed_frac", frac, "1", rep.Failed, rep.Attempted)
	fmt.Fprintf(w, "  %-18s %12.2f %-5s\n", "rss_mb", rep.RSSMB, "MiB")
	fmt.Fprintf(w, "  generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms (bound: p99 <= %.0f ms)\n",
		rep.LateP50, rep.LateP99, rep.LateMax, latenessBound)
	fmt.Fprintf(w, "  host steal: %.1f%% of CPU time over the run; per round %.3f; load metrics from rounds %v\n",
		100*rep.StealFrac, rep.RoundSteal, rep.QuietRounds)
	if rep.FirstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rep.FirstErr)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
