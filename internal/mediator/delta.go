// Incremental view maintenance: the delta-propagation half of
// Mediator.RefreshSource.
//
// A refresh used to drop every cached functor group that had matched
// one of the source's entries and let the next Ask re-materialize
// from scratch. Here the refreshed fetch is instead diffed against
// the previous merged input store (internal/delta) and absorbed in
// three tiers, cheapest proven-sound tier first:
//
//  1. Insert patch. For an insert-only delta, the union slice of the
//     affected cached groups is re-run in delta-evaluation mode
//     (engine.WithDeltaSeeds): the activation fixpoint is seeded from
//     the inserted entries alone, so the run derives exactly the
//     delta's consequences. Its outputs are appended to the per-rule
//     cache. Soundness (see internal/engine/delta.go for the full
//     argument): every binding chain of the delta run descends from
//     an inserted entry; with single-pattern rules, no construct-head
//     Skolem derefs and no exception rules in the slice, the full
//     re-run's output is exactly the cached output plus these
//     delta-rooted outputs — unless a delta-rooted binding lands in a
//     cached identity's group, which the OID collision check detects,
//     rejecting the patch. Ask answers are sorted before they are
//     returned (and the ask memo is versioned), so appending at the
//     cache's tail cannot leak an ordering difference.
//
//  2. Slice re-run. When the delta deletes or rewrites entries
//     (removing an input can unblock a less-specific rule — §4.2
//     blocking makes deletion non-monotone), joins, derefs,
//     exception rules or a collision make the patch unprovable, the
//     union slice of the affected groups is re-run normally over the
//     new inputs and swapped into the cache in place. Unaffected
//     groups stay warm; this is still far cheaper than the old
//     wholesale drop when the source feeds few of the cached groups.
//
//  3. Wholesale invalidation. A source that had been failing while
//     rules were cached has no dependency record (absent data matched
//     nothing), and a fetch that fails or degrades during the refresh
//     has no complete picture to diff — both fall back to
//     Invalidate(), exactly the old behaviour.
//
// Affected groups are found without running anything: the deleted and
// changed entries' keys are looked up in the per-rule source records
// of past slice runs, the inserted and rewritten entries are pushed
// through the PR-7 dispatch index (engine.AffectedRules), and a
// cached group is affected iff its slice — construct and support
// rules alike — contains an affected rule. A rule the delta cannot
// reach directly or through minted activations is, by slice closure,
// provably byte-identical after the refresh.
package mediator

import (
	"context"
	"fmt"

	"yat/internal/delta"
	"yat/internal/engine"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Fallback reasons carried by KindDeltaFallback trace events.
const (
	// ReasonDeletions: the delta deletes or rewrites entries; removal
	// is non-monotone under §4.2 blocking, so patching is unsound.
	ReasonDeletions = "deletions"
	// ReasonExceptionRules: the program has exception rules, which
	// fire on the complement of the matched inputs — any delta can
	// change their output.
	ReasonExceptionRules = "exception-rules"
	// ReasonMultiPatternJoin: a slice rule joins several body
	// patterns; a delta-seeded run would miss joins between new and
	// old bindings.
	ReasonMultiPatternJoin = "multi-pattern-join"
	// ReasonSkolemDeref: a construct head dereferences a Skolem (^P);
	// the patch could bake a partial value of a cached identity into
	// other outputs.
	ReasonSkolemDeref = "skolem-deref"
	// ReasonOutputCollision: the delta run minted an identity the
	// cache already holds — the new bindings belong in an existing
	// group, which only a re-run can rebuild.
	ReasonOutputCollision = "output-collision"
	// ReasonDeltaRunError: the delta-seeded run itself failed; the
	// plain re-run decides.
	ReasonDeltaRunError = "delta-run-error"
	// ReasonSliceRunError: the fallback re-run failed too; the
	// affected groups are dropped and the error is returned.
	ReasonSliceRunError = "slice-run-error"
	// ReasonDegradedSource: the refreshed source had been failing
	// while rules were cached; no dependency record exists.
	ReasonDegradedSource = "degraded-source"
	// ReasonFetchFailed: the refresh fetch failed or left some source
	// degraded; there is no complete new picture to diff.
	ReasonFetchFailed = "fetch-failed"
	// ReasonNoBaseline: no previous merge is recorded to diff against.
	ReasonNoBaseline = "no-baseline"
)

// deltaOutcome summarizes one refresh for counters and trace events.
type deltaOutcome struct {
	// wholesale: the whole demand generation must be invalidated
	// (tier 3). fallback: the refresh was absorbed by a slice re-run
	// (tier 2). Neither set: absorbed incrementally (tier 1, possibly
	// trivially — empty delta or no cached dependents).
	wholesale bool
	fallback  bool
	reason    string
	ins, del  int
	chg       int
	patched   int
}

func (o deltaOutcome) detail(name string) string {
	if o.reason != "" {
		return fmt.Sprintf("source=%s reason=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
			name, o.reason, o.ins, o.del, o.chg, o.patched)
	}
	return fmt.Sprintf("source=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
		name, o.ins, o.del, o.chg, o.patched)
}

// refreshDelta is the demand-mode tail of RefreshSource: diff, patch
// or re-run under the generation lock, then count and trace the
// outcome. Wholesale invalidation happens here, after the generation
// lock is released — Invalidate takes m.mu, and the established lock
// order (Reload) is m.mu before g.mu.
func (m *Mediator) refreshDelta(ctx context.Context, name string) error {
	st := m.state()
	out, err := m.applyDelta(ctx, st, name)
	switch {
	case out.wholesale:
		m.deltaFallbacks.Add(1)
		m.emitDelta(trace.KindDeltaFallback, out, name)
		m.Invalidate()
	case out.fallback:
		m.deltaFallbacks.Add(1)
		m.patchedRules.Add(int64(out.patched))
		m.emitDelta(trace.KindDeltaFallback, out, name)
	default:
		m.deltaRuns.Add(1)
		m.patchedRules.Add(int64(out.patched))
		m.emitDelta(trace.KindDeltaApplied, out, name)
	}
	return err
}

func (m *Mediator) emitDelta(kind trace.Kind, out deltaOutcome, name string) {
	if m.opts.Trace == nil {
		return
	}
	m.opts.Trace.Emit(trace.Event{Kind: kind, Phase: trace.PhaseSlice,
		Detail: out.detail(name), Count: out.patched})
}

// applyDelta performs the diff and the patch/re-run under the
// generation lock, serializing with ensureDemand so a concurrent Ask
// observes the cache before or after the refresh, never mid-patch.
func (m *Mediator) applyDelta(ctx context.Context, st *progState, name string) (deltaOutcome, error) {
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()

	if g.degraded[name] {
		return deltaOutcome{wholesale: true, reason: ReasonDegradedSource}, nil
	}
	if len(g.cached) == 0 {
		// Cold cache: nothing to patch; the next Ask fetches fresh.
		return deltaOutcome{}, nil
	}
	m.srcMu.Lock()
	prev := m.lastMerged
	m.srcMu.Unlock()
	if prev == nil {
		return deltaOutcome{wholesale: true, reason: ReasonNoBaseline}, nil
	}
	inputs, err := m.fetchInputs(ctx)
	if err != nil {
		return deltaOutcome{wholesale: true, reason: ReasonFetchFailed}, nil
	}
	degradedNow := false
	m.srcMu.Lock()
	for _, ferr := range m.srcErrs {
		if ferr != nil {
			degradedNow = true
			break
		}
	}
	m.srcMu.Unlock()
	if degradedNow {
		return deltaOutcome{wholesale: true, reason: ReasonFetchFailed}, nil
	}

	d := delta.Diff(prev, inputs)
	out := deltaOutcome{ins: len(d.Inserted), del: len(d.Deleted), chg: len(d.Changed)}
	if d.Empty() {
		return out, nil
	}
	groups := m.affectedGroups(st, g, d)
	if len(groups) == 0 {
		// The delta is real but no cached rule can observe it.
		return out, nil
	}
	sl := st.sliceFor(groups...)

	reason := tier1Blocker(st.prog, sl, d)
	if reason == "" {
		patched, ok, runErr := m.insertPatch(ctx, st, g, sl, d, inputs)
		if runErr == nil && ok {
			out.patched = patched
			return out, nil
		}
		if runErr != nil {
			reason = ReasonDeltaRunError
		} else {
			reason = ReasonOutputCollision
		}
	}

	// Tier 2: re-run the union slice of the affected groups over the
	// new inputs and swap it into the cache; unaffected groups stay.
	out.fallback = true
	out.reason = reason
	res, runErr := engine.RunSlice(ctx, st.prog, inputs, sl, m.withFacts(st)...)
	if runErr != nil {
		g.lastErr = runErr
		for _, f := range groups {
			g.dropFunctor(st.prog, f)
		}
		out.reason = ReasonSliceRunError
		return out, fmt.Errorf("mediator: delta refresh of %s: %w", name, runErr)
	}
	g.lastErr = nil
	out.patched = g.applyRerun(sl, res)
	g.runs++
	addStats(&g.stats, res.Stats)
	return out, nil
}

// affectedGroups returns the cached functor groups whose slices
// contain a rule the delta can feed: rules that recorded a direct
// match on a deleted or rewritten entry (ruleSources, from past slice
// runs) plus rules the inserted or rewritten trees can match
// (engine.AffectedRules over the dispatch index). Slice closure
// extends direct reachability to derived activations: a rule fed only
// through minted activations lives in the same slice as its minters.
func (m *Mediator) affectedGroups(st *progState, g *demandGen, d *delta.Delta) []string {
	newSide := make([]tree.StoreEntry, 0, len(d.Inserted)+len(d.Changed))
	newSide = append(newSide, d.Inserted...)
	for _, c := range d.Changed {
		newSide = append(newSide, tree.StoreEntry{Name: c.Name, Tree: c.New})
	}
	affected := engine.AffectedRules(st.prog, st.facts, newSide)
	oldKeys := make([]string, 0, len(d.Deleted)+len(d.Changed))
	for _, e := range d.Deleted {
		oldKeys = append(oldKeys, e.Name.Key())
	}
	for _, c := range d.Changed {
		oldKeys = append(oldKeys, c.Name.Key())
	}
	for _, key := range oldKeys {
		for rule, set := range g.ruleSources {
			if set[key] {
				affected[rule] = true
			}
		}
	}
	if len(affected) == 0 {
		return nil
	}
	var groups []string
	for _, f := range g.cachedFunctors(st.prog) {
		sl := st.sliceFor(f)
		for r := range affected {
			if sl.Includes(r) {
				groups = append(groups, f)
				break
			}
		}
	}
	return groups
}

// tier1Blocker reports why the insert patch would be unsound for this
// slice and delta — or "" when it is provably safe to try.
func tier1Blocker(prog *yatl.Program, sl *engine.Slice, d *delta.Delta) string {
	if !d.InsertOnly() {
		return ReasonDeletions
	}
	for _, r := range prog.Rules {
		if r.Exception {
			return ReasonExceptionRules
		}
	}
	for _, r := range sl.Construct {
		if reason := ruleBlocksPatch(r, true); reason != "" {
			return reason
		}
	}
	for _, r := range sl.Support {
		if reason := ruleBlocksPatch(r, false); reason != "" {
			return reason
		}
	}
	return ""
}

func ruleBlocksPatch(r *yatl.Rule, construct bool) string {
	if len(r.Body) > 1 {
		return ReasonMultiPatternJoin
	}
	if construct && r.Head.Tree != nil {
		for _, ref := range r.Head.Tree.PatternRefs() {
			if !ref.Ref {
				return ReasonSkolemDeref
			}
		}
	}
	return ""
}

// insertPatch runs the slice in delta-evaluation mode and appends its
// outputs to the cache. ok is false when an output identity collides
// with a cached one — the caller re-runs instead. Holds g.mu (via
// applyDelta).
func (m *Mediator) insertPatch(ctx context.Context, st *progState, g *demandGen,
	sl *engine.Slice, d *delta.Delta, inputs *tree.Store) (patched int, ok bool, err error) {
	seeds := tree.NewStore()
	for _, e := range d.Inserted {
		seeds.Put(e.Name, e.Tree)
	}
	res, err := engine.RunSlice(ctx, st.prog, inputs, sl,
		append(m.withFacts(st), engine.WithDeltaSeeds(seeds))...)
	if err != nil {
		return 0, false, err
	}
	for _, r := range sl.Construct {
		for _, e := range res.RuleOutputs[r.Name] {
			if g.store.Has(e.Name) {
				return 0, false, nil
			}
		}
	}
	for _, r := range sl.Construct {
		entries := res.RuleOutputs[r.Name]
		if len(entries) == 0 {
			continue
		}
		patched++
		g.ruleEntries[r.Name] = append(g.ruleEntries[r.Name], entries...)
		for _, e := range entries {
			g.put(e.Name, e.Tree)
		}
	}
	// The delta run adds dependencies, it does not recompute old ones:
	// merge its source records into the existing sets.
	for rule, srcs := range res.RuleSources {
		set := g.ruleSources[rule]
		if set == nil {
			set = map[string]bool{}
			g.ruleSources[rule] = set
		}
		for _, s := range srcs {
			set[s.Key()] = true
		}
	}
	g.runs++
	addStats(&g.stats, res.Stats)
	return patched, true, nil
}

// applyRerun swaps a full slice re-run's outputs into the cache in
// place: the construct rules' old entries are evicted, the new ones
// committed, and the touched functor buckets rebuilt wholesale (bucket
// snapshots held by in-flight asks keep their old view). Returns the
// number of rules whose entries actually changed. Must hold g.mu.
func (g *demandGen) applyRerun(sl *engine.Slice, res *engine.SliceResult) int {
	g.version++
	if len(g.askMemo) > 0 {
		clear(g.askMemo)
	}
	// Evict every old entry first: rules of one group may share minted
	// identities, and a shared stale entry must not outlive the swap.
	for _, r := range sl.Construct {
		for _, e := range g.ruleEntries[r.Name] {
			g.store.Delete(e.Name)
		}
	}
	patched := 0
	touched := map[string]bool{}
	for _, r := range sl.Construct {
		fresh := res.RuleOutputs[r.Name]
		if !entriesEqual(g.ruleEntries[r.Name], fresh) {
			patched++
		}
		g.cached[r.Name] = true
		g.ruleEntries[r.Name] = fresh
		for _, e := range fresh {
			g.store.Put(e.Name, e.Tree)
		}
		touched[r.Head.Functor] = true
	}
	for f := range touched {
		delete(g.byFunctor, f)
	}
	for _, e := range g.store.Entries() {
		if touched[e.Name.Functor] {
			g.byFunctor[e.Name.Functor] = append(g.byFunctor[e.Name.Functor], e)
		}
	}
	// The re-run recomputed these rules completely: replace their
	// source records instead of merging.
	replaceRuleSources(g, sl.Construct, res)
	replaceRuleSources(g, sl.Support, res)
	return patched
}

func replaceRuleSources(g *demandGen, rules []*yatl.Rule, res *engine.SliceResult) {
	for _, r := range rules {
		srcs := res.RuleSources[r.Name]
		set := make(map[string]bool, len(srcs))
		for _, s := range srcs {
			set[s.Key()] = true
		}
		g.ruleSources[r.Name] = set
	}
}

// entriesEqual reports byte-identity of two committed entry lists:
// same names, same trees, same order.
func entriesEqual(a, b []tree.StoreEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name.Key() != b[i].Name.Key() || !a[i].Tree.Equal(b[i].Tree) {
			return false
		}
	}
	return true
}

func addStats(dst *engine.Stats, s engine.Stats) {
	dst.Activations += s.Activations
	dst.Bindings += s.Bindings
	dst.Outputs += s.Outputs
	dst.Rounds += s.Rounds
}
