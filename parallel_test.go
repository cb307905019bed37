package yat

// Golden comparison for the parallel engine: every workload of the
// benchmark suite must produce byte-identical results at every
// parallelism level. This is the acceptance gate for the worker-pool
// execution — parallelism is an implementation detail the output must
// not reveal.

import (
	"fmt"
	"strings"
	"testing"

	"yat/internal/workload"
	"yat/internal/yatl"
)

// fingerprint renders everything observable about a run.
func fingerprint(res *Result) string {
	var sb strings.Builder
	sb.WriteString(FormatStore(res.Outputs))
	sb.WriteString("\n--warnings--\n")
	for _, w := range res.Warnings {
		sb.WriteString(w)
		sb.WriteByte('\n')
	}
	sb.WriteString("--unconverted--\n")
	for _, id := range res.Unconverted {
		sb.WriteString(id.Display())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "--stats--\n%+v\n", res.Stats)
	return sb.String()
}

func rule3Store(n int, seed uint64) *Store {
	pool := workload.Suppliers(n/2+2, seed)
	brochures := workload.Brochures(n, 2, pool, seed)
	db := workload.DealerDatabase(brochures, pool, seed)
	store := NewStore()
	for i, br := range brochures {
		store.Put(PlainName(fmt.Sprintf("b%d", i+1)), br.Tree())
	}
	for _, e := range ImportRelational(db).Entries() {
		store.Put(e.Name, e.Tree)
	}
	return store
}

func matrixStore(n int) *Store {
	s := NewStore()
	s.Put(PlainName("m"), workload.MatrixTree(n, n))
	return s
}

// warningStore yields n inputs for the warny program: odd entries
// carry a parseable address, even ones a malformed one that makes
// city() error and drop the binding with a warning.
func warningStore(n int) *Store {
	var sb strings.Builder
	for i := 1; i <= n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "i%d: in -> \"address without locality %d\"\n", i, i)
		} else {
			fmt.Fprintf(&sb, "i%d: in -> \"%d Bd Lenoir, 75%03d Paris\"\n", i, i, i)
		}
	}
	s, err := ParseStore(sb.String())
	if err != nil {
		panic(err)
	}
	return s
}

func TestParallelByteIdenticalOnWorkloads(t *testing.T) {
	composed := func(t *testing.T) *Program {
		first, err := ParseProgram(Rules1And2Typed)
		if err != nil {
			t.Fatal(err)
		}
		second, err := ParseProgram(WebRules)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ComposePrograms(first, second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name         string
		src          string // YATL source; empty means prog is built below
		prog         func(t *testing.T) *Program
		inputs       *Store
		wantWarnings bool // the case must actually exercise Warnings
	}{
		{name: "brochures/rules1and2", src: Rules1And2,
			inputs: workload.BrochureStore(40, 3, 12, 42)},
		{name: "brochures/typed", src: Rules1And2Typed,
			inputs: workload.BrochureStore(25, 4, 8, 7)},
		{name: "brochures/rule4-grouping", src: "program p\n" + yatl.Rule4Source,
			inputs: workload.BrochureStore(30, 6, 15, 3)},
		{name: "cardealer/rule3-join", src: "program p\n" + yatl.Rule3Source,
			inputs: rule3Store(24, 7)},
		{name: "web/odmg-to-html", src: WebRules,
			inputs: workload.ODMGStore(20, 11, 3, 11)},
		{name: "matrix/transpose", src: TransposeRule,
			inputs: matrixStore(16)},
		{name: "brochures/composed", prog: composed,
			inputs: workload.BrochureStore(15, 3, 9, 5)},
		// Warning-heavy case: half the inputs make city() fail (binding
		// dropped with a warning), and every output holds a reference
		// to a Skolem no rule defines (dangling-reference warnings).
		// This pins the *order* of Result.Warnings across widths — the
		// other workloads barely warn at all.
		{name: "warnings/dropped-and-dangling", src: `
program warny
rule R {
  head Pout(X) = out < -> city -> C, -> link -> &Pmissing(X) >
  from X = in -> A
  let C = city(A)
}
`,
			inputs: warningStore(16), wantWarnings: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prog *Program
			if tc.prog != nil {
				prog = tc.prog(t)
			} else {
				p, err := ParseProgram(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				prog = p
			}
			seq, err := Run(prog, tc.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantWarnings && len(seq.Warnings) < 2 {
				t.Fatalf("case meant to pin warning order produced %d warnings", len(seq.Warnings))
			}
			want := fingerprint(seq)
			for _, par := range []int{2, 4, -1} {
				res, err := Run(prog, tc.inputs, WithParallelism(par))
				if err != nil {
					t.Fatalf("parallelism=%d: %v", par, err)
				}
				if got := fingerprint(res); got != want {
					t.Errorf("parallelism=%d output diverges from sequential", par)
				}
			}
		})
	}
}

// TestParallelPipelineByteIdentical chains the Figure 1 two-step
// conversion (SGML→ODMG→HTML) with both engines and compares the
// exported HTML byte for byte.
func TestParallelPipelineByteIdentical(t *testing.T) {
	first, err := ParseProgram(Rules1And2)
	if err != nil {
		t.Fatal(err)
	}
	web, err := ParseProgram(WebRules)
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.BrochureStore(12, 3, 6, 42)
	render := func(opts Option) map[string]string {
		mid, err := Run(first, inputs, opts)
		if err != nil {
			t.Fatal(err)
		}
		interm := NewStore()
		for _, e := range mid.Outputs.Entries() {
			interm.Put(e.Name, e.Tree)
		}
		res, err := Run(web, interm, opts)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := ExportHTML(res.Outputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	want := render(nil)
	got := render(WithParallelism(4))
	if len(got) != len(want) {
		t.Fatalf("page count: got %d, want %d", len(got), len(want))
	}
	for name, html := range want {
		if got[name] != html {
			t.Errorf("page %s differs between sequential and parallel runs", name)
		}
	}
}
