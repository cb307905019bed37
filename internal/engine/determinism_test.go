package engine

import (
	"errors"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

// TestUnconvertedDeterministicAcrossParallelism pins the §3.5
// exception report: the same inputs must yield the same
// ErrUnconverted message — and the same Result.Unconverted order — at
// every Parallelism setting. The stray inputs are chosen so that
// insertion order, lexical order and kind order all disagree.
func TestUnconvertedDeterministicAcrossParallelism(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource + yatl.ExceptionRuleSource)
	store := fig3Store()
	for _, name := range []string{"stray10", "stray2", "astray", "stray1"} {
		store.Put(tree.PlainName(name), tree.Sym("memo", tree.Str(name)))
	}

	var wantMsg string
	var wantIDs []string
	for _, par := range []int{1, 4, 8} {
		res, err := Run(prog, store, WithParallelism(par))
		var unc *ErrUnconverted
		if !errors.As(err, &unc) {
			t.Fatalf("parallelism=%d: expected ErrUnconverted, got %v", par, err)
		}
		if res == nil {
			t.Fatalf("parallelism=%d: partial result missing", par)
		}
		ids := make([]string, len(res.Unconverted))
		for i, id := range res.Unconverted {
			ids[i] = id.Display()
		}
		if wantMsg == "" {
			wantMsg = unc.Error()
			wantIDs = ids
			continue
		}
		if unc.Error() != wantMsg {
			t.Errorf("parallelism=%d: message %q differs from width-1 message %q", par, unc.Error(), wantMsg)
		}
		if len(ids) != len(wantIDs) {
			t.Fatalf("parallelism=%d: %d unconverted, want %d", par, len(ids), len(wantIDs))
		}
		for i := range ids {
			if ids[i] != wantIDs[i] {
				t.Errorf("parallelism=%d: Unconverted[%d] = %s, want %s", par, i, ids[i], wantIDs[i])
			}
		}
	}
}

// TestUnconvertedTotalOrder feeds inputs whose display keys would tie
// under the old comparator only on identical values: the kind-first
// total order must hold regardless of activation order.
func TestUnconvertedTotalOrder(t *testing.T) {
	prog := yatl.MustParse(`
program narrow
rule R {
  head Pout(X) = out -> V
  from X = wanted -> V
}
` + yatl.ExceptionRuleSource)
	store := tree.NewStore()
	// None of these match rule R; all are reported unconverted.
	store.Put(tree.PlainName("zz"), tree.Sym("memo", tree.Str("a")))
	store.Put(tree.PlainName("aa"), tree.Sym("memo", tree.Str("b")))
	store.Put(tree.PlainName("mm"), tree.Sym("memo", tree.Str("c")))
	res, err := Run(prog, store, nil)
	var unc *ErrUnconverted
	if !errors.As(err, &unc) {
		t.Fatalf("expected ErrUnconverted, got %v", err)
	}
	want := []string{"&aa", "&mm", "&zz"}
	if len(res.Unconverted) != len(want) {
		t.Fatalf("unconverted = %v", res.Unconverted)
	}
	for i, id := range res.Unconverted {
		if id.Display() != want[i] {
			t.Errorf("Unconverted[%d] = %s, want %s", i, id.Display(), want[i])
		}
	}
}
