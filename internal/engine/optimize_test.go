package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// deadMixSource exercises every pruning path at once: a never-firing
// rule in a singleton group (prunable), a never-firing rule pinned by
// an order constraint (not prunable), a live rule, and an unreachable
// two-rule demand cycle. The optimizer must skip and prune without
// changing a single output byte.
const deadMixSource = `
program deadmix

rule Live {
  head Plive(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
}

rule DeadAlone {
  head Pdead(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
  where 1 == 2
}

rule DeadOrdered {
  head Pord(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
  where 2 < 1
}

rule OtherOrdered {
  head Poth(X) = o -> w -> X
  from P = alpha < -> k -> X : string >
}

rule CycA {
  head Pca(X) = out -> v -{}> &Pcb(X)
  from P = alpha < -> k -> X : string >
}

rule CycB {
  head Pcb(X) = out -> v -{}> &Pca(X)
  from P = alpha < -> k -> X : string >
}

order DeadOrdered before OtherOrdered
`

// warnHeavySource drops inputs through a failing external function, so
// every run produces a dense warning stream whose order must survive
// optimization.
const warnHeavySource = `
program warny
rule W {
  head Pz(X) = z -> Z
  from X = addr -> A
  let Z = zip(A)
}
`

func warnHeavyStore() *tree.Store {
	s := tree.NewStore()
	for i := 1; i <= 12; i++ {
		addr := fmt.Sprintf("street %d, 7500%d Paris", i, i%10)
		if i%3 == 0 {
			addr = fmt.Sprintf("malformed %d", i) // no comma: zip() errors
		}
		s.Put(tree.PlainName(fmt.Sprintf("a%d", i)), tree.Sym("addr", tree.Str(addr)))
	}
	return s
}

func alphaStore(n int) *tree.Store {
	s := tree.NewStore()
	for i := 0; i < n; i++ {
		s.Put(tree.PlainName(fmt.Sprintf("in%d", i)),
			tree.Sym("alpha", tree.Sym("k", tree.Str(fmt.Sprintf("v%d", i)))))
	}
	return s
}

// optimizeCases is the golden-equivalence corpus: every engine
// workload the test suite exercises elsewhere, plus the dead-rule mix
// and the warning-heavy program.
func optimizeCases() []struct {
	name   string
	src    string
	inputs *tree.Store
} {
	return []struct {
		name   string
		src    string
		inputs *tree.Store
	}{
		{"sgml2odmg", yatl.SGMLToODMGSource, mergeStores(fig3Store(), relationalStore())},
		{"sgml2odmgBig", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42)},
		{"sgml2odmgPrime", yatl.SGMLToODMGPrimeSource, workload.BrochureStore(6, 2, 4, 3)},
		{"annotated", yatl.AnnotatedSGMLToODMGSource, workload.BrochureStore(5, 2, 4, 7)},
		{"web", yatl.WebProgramSource, workload.ODMGStore(4, 3, 2, 3)},
		{"selective", workload.SelectiveProgram(12), workload.BrochureStore(6, 2, 5, 11)},
		{"deadmix", deadMixSource, alphaStore(9)},
		{"warnheavy", warnHeavySource, warnHeavyStore()},
	}
}

// TestOptimizedEquivalence is the acceptance gate for the optimizer:
// for every workload and every parallelism setting, a run under
// precomputed facts — dispatch indexing, dead-rule pruning and memoized
// slices active — produces a result byte-identical to the unoptimized
// run: outputs, warnings, unconverted list and stats.
func TestOptimizedEquivalence(t *testing.T) {
	for _, c := range optimizeCases() {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			facts := AnalyzeProgram(prog)
			for _, par := range []int{1, 4, 8} {
				plain, err := Run(prog, c.inputs, WithParallelism(par))
				if err != nil {
					t.Fatalf("unoptimized @%d: %v", par, err)
				}
				want := resultFingerprint(plain)
				opt, err := Run(prog, c.inputs, WithParallelism(par), WithFacts(facts))
				if err != nil {
					t.Fatalf("optimized @%d: %v", par, err)
				}
				if got := resultFingerprint(opt); got != want {
					t.Errorf("facts run diverges @%d:\n got:\n%s\nwant:\n%s", par, got, want)
				}
			}
		})
	}
}

// TestOptimizedRunAnnouncesAnalysis: an optimized run emits the
// KindAnalysis event so EXPLAIN shows which facts were in force; an
// unoptimized run stays silent.
func TestOptimizedRunAnnouncesAnalysis(t *testing.T) {
	prog := yatl.MustParse(deadMixSource)
	facts := AnalyzeProgram(prog)

	p := trace.NewProfile()
	if _, err := Run(prog, alphaStore(4), WithFacts(facts), WithTrace(p)); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Analysis(), facts.Summary(); got != want {
		t.Errorf("profile analysis = %q, want %q", got, want)
	}
	if text := p.Text(false); !strings.Contains(text, "analysis: syms=") {
		t.Errorf("EXPLAIN rendering missing the analysis line:\n%s", text)
	}

	bare := trace.NewProfile()
	if _, err := Run(prog, alphaStore(4), WithTrace(bare)); err != nil {
		t.Fatal(err)
	}
	if bare.Analysis() != "" {
		t.Errorf("unoptimized run announced analysis: %q", bare.Analysis())
	}
}

// TestOptimizedSliceEquivalence runs each workload through the pruned
// memoized full slice — the path the mediator takes — and demands the
// same bytes as a plain Run.
func TestOptimizedSliceEquivalence(t *testing.T) {
	for _, c := range optimizeCases() {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			facts := AnalyzeProgram(prog)
			plain, err := Run(prog, c.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := tree.FormatStore(plain.Outputs)
			res, err := RunSlice(context.Background(), prog, c.inputs, facts.SliceFor(), WithFacts(facts))
			if err != nil {
				t.Fatal(err)
			}
			if got := tree.FormatStore(res.Outputs); got != want {
				t.Errorf("pruned full slice diverges:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
