package mediator

import (
	"sort"
	"testing"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// The mediator computes program facts per generation and always runs
// the engine optimized. This gate compares it, answer for answer,
// against the same pattern matched over a plain engine.Run without
// facts — the linear-scan reference — in full materialization and
// demand mode, cold and warm (cache-hit) asks, at several parallelism
// settings.
func TestMediatorOptimizedMatchesUnoptimized(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		pattern  string
		functors []string
	}{
		{"sgml2odmg-sup", yatl.SGMLToODMGSource, `X`, []string{"Psup"}},
		{"sgml2odmg-all", yatl.SGMLToODMGSource, `X`, nil},
		{"selective-one", workload.SelectiveProgram(6), `view < -> name -> N, -> city -> C, -> zip -> Z >`, []string{"Pview2"}},
	}
	inputs := workload.BrochureStore(8, 2, 5, 42)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			pt, err := yatl.ParsePattern(c.pattern)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, 8} {
				plain, err := engine.Run(prog, inputs, engine.WithParallelism(par))
				if err != nil {
					t.Fatalf("unoptimized @%d: %v", par, err)
				}
				want := referenceAnswers(plain.Outputs, pt, c.functors)
				if len(want) == 0 {
					t.Fatalf("@%d: vacuous case, the pattern matches nothing", par)
				}
				for _, demand := range []bool{false, true} {
					opt := New(prog, inputs,
						engine.WithParallelism(par), WithDemandDriven(demand))
					got, err := opt.Ask(c.pattern, c.functors...)
					if err != nil {
						t.Fatalf("optimized @%d demand=%v: %v", par, demand, err)
					}
					if answersKey(t, got) != answersKey(t, want) {
						t.Fatalf("@%d demand=%v: optimized answers differ\n got:\n%s\nwant:\n%s",
							par, demand, answersKey(t, got), answersKey(t, want))
					}
					// Warm re-ask: in demand mode this is a pure cache
					// hit through the byFunctor snapshot.
					again, err := opt.Ask(c.pattern, c.functors...)
					if err != nil {
						t.Fatalf("warm @%d demand=%v: %v", par, demand, err)
					}
					if answersKey(t, again) != answersKey(t, want) {
						t.Fatalf("@%d demand=%v: warm optimized answers differ", par, demand)
					}
				}
			}
		})
	}
}

// referenceAnswers matches a pattern over a run's outputs the way Ask
// does: entries of the requested functors (all when none), answers in
// MergeKey order.
func referenceAnswers(outputs *tree.Store, pt *pattern.PTree, functors []string) []Answer {
	want := map[string]bool{}
	for _, f := range functors {
		want[f] = true
	}
	matcher := &engine.Matcher{Store: outputs}
	var out []Answer
	for _, e := range outputs.Entries() {
		if len(want) > 0 && !want[e.Name.Functor] {
			continue
		}
		for _, b := range matcher.MatchTree(pt, e.Tree) {
			out = append(out, Answer{Name: e.Name, Binding: b})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MergeKey() < out[j].MergeKey() })
	return out
}

// TestAskMemoIsolation: the demand generation memoizes repeated asks,
// so the slices handed out must be isolated — a caller clobbering its
// result slice must not corrupt the next ask's answers.
func TestAskMemoIsolation(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	m := New(prog, workload.BrochureStore(6, 2, 5, 11), WithDemandDriven(true))
	const pat = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	want, err := m.Ask(pat, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous: no answers")
	}
	wantKey := answersKey(t, want)
	got, err := m.Ask(pat, "Pview1") // memo hit
	if err != nil {
		t.Fatal(err)
	}
	got[0] = Answer{} // caller scribbles over its copy
	_ = append(got, Answer{})
	again, err := m.Ask(pat, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if answersKey(t, again) != wantKey {
		t.Errorf("memoized answers corrupted by a caller's writes:\n got:\n%s\nwant:\n%s",
			answersKey(t, again), wantKey)
	}
}
