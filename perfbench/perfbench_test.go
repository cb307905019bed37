package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"yat/internal/tree"
)

func opSequence(s *spec, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.op(i)
	}
	return out
}

func TestSeedDeterminesOps(t *testing.T) {
	for _, wl := range []string{"hot-ask", "refresh-churn"} {
		a, _ := newSpec(wl, 7)
		b, _ := newSpec(wl, 7)
		c, _ := newSpec(wl, 8)
		if !reflect.DeepEqual(opSequence(a, 500), opSequence(b, 500)) {
			t.Errorf("%s: seed 7 gave two different op sequences", wl)
		}
		if reflect.DeepEqual(opSequence(a, 500), opSequence(c, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", wl)
		}
		if tree.FormatStore(a.store) != tree.FormatStore(b.store) {
			t.Errorf("%s: seed 7 gave two different stores", wl)
		}
		if tree.FormatStore(a.store) == tree.FormatStore(c.store) {
			t.Errorf("%s: seeds 7 and 8 gave the same store", wl)
		}
		if a.script != nil && (!reflect.DeepEqual(a.script.steps, b.script.steps) || reflect.DeepEqual(a.script.steps, c.script.steps)) {
			t.Errorf("%s: refresh script is not a function of the seed", wl)
		}
	}
}

func TestScriptRoundTrip(t *testing.T) {
	s, _ := newSpec("refresh-churn", 3)
	dir := t.TempDir()
	if err := s.writeInputs(dir); err != nil {
		t.Fatal(err)
	}
	got, err := readScript(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 2, 17} {
		if tree.FormatStore(got.merged(v)) != tree.FormatStore(s.script.merged(v)) {
			t.Fatalf("version %d differs after the server reads the script back", v)
		}
	}
	if s.script.merged(1).Len() != s.store.Len()-refreshBatch || s.script.merged(2).Len() != s.store.Len() {
		t.Fatalf("a step pair should delete then re-insert %d entries: sizes %d, %d, %d",
			refreshBatch, s.store.Len(), s.script.merged(1).Len(), s.script.merged(2).Len())
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		// Two shards asked concurrently: [10,40] and [30,60] cover 50,
		// not 60.
		{"overlapping scatter", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested overlap", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"clipped to parent", []span{{Start: -5, End: 10}, {Start: 95, End: 130}}, 85},
		{"full cover", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerSelfFederation(t *testing.T) {
	rec := &recorder{}
	add := func(name string, parent int, a, b int64) int {
		id := len(rec.spans) + 1
		rec.spans = append(rec.spans, span{ID: id, Name: name, Parent: parent, Start: a, End: b})
		return id
	}
	h := add("http", 0, 0, 1000)
	s := add("serve", h, 100, 900)
	f := add("federate", s, 200, 800)
	add("mediator", f, 250, 600)
	add("mediator", f, 300, 700)
	spans := rec.snapshot()
	got := layerSelf(spans[h-1], childIndex(spans))
	want := map[string]int64{"http": 200, "serve": 200, "federate": 150, "mediator": 350 + 400}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layer self times %v, want %v", got, want)
	}
	for l, v := range got {
		if v < 0 {
			t.Errorf("negative self time for %s", l)
		}
	}
}

func serverBody(gen int, answerPart []byte) []byte {
	return append([]byte("{\n  \"generation\": "+string(rune('0'+gen))+",\n  "), answerPart...)
}

func TestOracleFlagsWrongAnswer(t *testing.T) {
	s, _ := newSpec("hot-ask", 5)
	orc, err := buildOracle(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := orc.byAsk[3][0].body
	if !orc.check(3, serverBody(1, good), 0, 0) {
		t.Fatal("the expected body itself was rejected")
	}
	if orc.check(4, serverBody(1, good), 0, 0) {
		t.Fatal("another view's answer was accepted")
	}
	wrong := []byte(strings.Replace(string(good), `"count": 40`, `"count": 39`, 1))
	if string(wrong) == string(good) {
		t.Fatalf("test body has no count 40: %.200s", good)
	}
	if orc.check(3, serverBody(1, wrong), 0, 0) {
		t.Fatal("an injected wrong count was accepted")
	}
	var zip = strings.Index(string(good), `"Z": "`)
	flipped := append([]byte(nil), good...)
	flipped[zip+6] ^= 1
	if orc.check(3, serverBody(1, flipped), 0, 0) {
		t.Fatal("an injected wrong binding was accepted")
	}
}

func TestOracleVersions(t *testing.T) {
	s, _ := newSpec("refresh-churn", 5)
	orc, err := buildOracle(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, touched := s.affected(s.script.steps[0])
	i := touched[0]
	exps := orc.byAsk[i]
	if len(exps) != 3 || exps[1].version != 1 || exps[2].version != 2 {
		t.Fatalf("ask %d: want changes at versions 0, 1 (deleted), 2 (re-inserted), got %d", i, len(exps))
	}
	before, deleted := serverBody(1, exps[0].body), serverBody(1, exps[1].body)
	if !strings.Contains(string(exps[1].body), `"count": 0`) {
		t.Fatalf("deleted entry still answers: %s", exps[1].body)
	}
	if !orc.check(i, before, 0, 1) || !orc.check(i, deleted, 0, 1) {
		t.Fatal("an ask racing refresh 0 must accept the answer before or after it")
	}
	if orc.check(i, before, 1, 1) || orc.check(i, deleted, 0, 0) || orc.check(i, deleted, 2, 2) {
		t.Fatal("an answer from outside the ask's version window was accepted")
	}
}

func TestLatenessFlagsStall(t *testing.T) {
	onTime := make([]float64, 1000)
	for i := range onTime {
		onTime[i] = 0.3
	}
	if err := checkLateness(onTime); err != nil {
		t.Fatalf("an on-time generator was flagged: %v", err)
	}
	stalled := append([]float64(nil), onTime...)
	// A 200 ms stall delays the 20 ops due during it by up to 200 ms.
	for i := 500; i < 520; i++ {
		stalled[i] = float64(520-i) * 10
	}
	if err := checkLateness(stalled); err == nil {
		t.Fatal("a stalled generator was not flagged")
	}
}

func TestQuietRounds(t *testing.T) {
	cases := []struct {
		steal []float64
		n     int
		want  []int
	}{
		// A quiet host keeps every round.
		{[]float64{0, 0.001, 0, 0.019}, 2, []int{0, 1, 2, 3}},
		{[]float64{0.15, 0.12, 0.01, 0.002, 0.13, 0.004}, 3, []int{2, 3, 5}},
		// Too few quiet rounds: the n least stolen.
		{[]float64{0.15, 0.12, 0.01, 0.03, 0.13, 0.04}, 3, []int{2, 3, 5}},
		{[]float64{0.3, 0.1, 0.2}, 2, []int{1, 2}},
		{[]float64{0.05}, 2, []int{0}},
	}
	for _, c := range cases {
		if got := quietRounds(c.steal, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quietRounds(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := newSpec(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	units := (&e2eReport{}).metrics()
	if len(b.EndToEnd) != len(units) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the run prints %d", len(b.EndToEnd), len(units))
	}
	for _, m := range b.EndToEnd {
		if units[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, units[m.Name].Unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the run prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for _, m := range b.PerLayer {
		if layerMetrics[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, layerMetrics[m.Name])
		}
	}
}
