package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// Workload shapes. hot-ask and fanout-ask share the brochure store so
// their only difference is the ask (functor-restricted vs bare) and the
// federation in front of the mediators; refresh-churn is the only one
// whose sources change while it is asked.
const (
	brochures      = 400
	suppliersPer   = 2
	supplierPool   = 40
	views          = 8
	churnFamilies  = 16
	churnPerFamily = 100
	churnSources   = 4
	refreshBatch   = 5  // entries deleted, then re-inserted, per refresh
	scriptSteps    = 64 // refresh steps generated per seed; runs use a prefix
	probeSteps     = 6  // refresh steps timed on separately built instances
)

const viewPattern = `view < -> name -> N, -> city -> C, -> zip -> Z >`

var workloadNames = []string{"hot-ask", "fanout-ask", "refresh-churn"}

// ask is one distinct request of a workload's op mix.
type ask struct {
	Pattern  string
	Functors []string
}

// step is one scripted source refresh: a batch of deletions or a batch
// of insertions in one source.
type step struct {
	Source int               `json:"source"`
	Delete []string          `json:"delete,omitempty"`
	Insert string            `json:"insert,omitempty"` // FormatStore text
	ins    []tree.StoreEntry // parsed Insert
}

func (s step) insertion() bool { return len(s.Delete) == 0 }

// script is a partitioned input plus the refresh steps applied to it.
// versions[r][i] is source i after the first r steps.
type script struct {
	names    []string
	steps    []step
	versions [][]*tree.Store
}

// spec is everything a run needs to know about one workload at one
// seed. All of it is a pure function of (workload, seed).
type spec struct {
	name     string
	seed     uint64
	progText string
	prog     *yatl.Program
	store    *tree.Store // version-0 inputs as one store
	shards   int         // yatserve -shards (0 = plain lane pool)
	asks     []ask       // every distinct ask of the op mix
	warm     []ask       // asks that cache every rule
	points   []ask       // memo-miss point lookups on cached rules
	rate     float64     // paced-phase asks per second
	// refreshEvery is the refresh schedule; 0 means the workload
	// sends no refreshes end to end.
	refreshEvery time.Duration
	// script holds refresh-churn's sources and refresh steps.
	script *script
	askOf  map[string]int // refresh-churn: entry name -> its point lookup
}

// op is the index into s.asks of the workload's i-th ask.
func (s *spec) op(i int) int {
	if len(s.asks) == 1 {
		return 0
	}
	return int(mix(s.seed^0x0905, uint64(i)) % uint64(len(s.asks)))
}

func newSpec(name string, seed uint64) (*spec, error) {
	switch name {
	case "hot-ask", "fanout-ask":
		return brochureSpec(name, seed), nil
	case "refresh-churn":
		return churnSpec(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func brochureSpec(name string, seed uint64) *spec {
	s := &spec{name: name, seed: seed, progText: workload.SelectiveProgram(views),
		store: workload.BrochureStore(brochures, suppliersPer, supplierPool, seed)}
	s.prog = yatl.MustParse(s.progText)
	for v := 1; v <= views; v++ {
		f := fmt.Sprintf("Pview%d", v)
		for sup := 1; sup <= supplierPool; sup++ {
			s.points = append(s.points, ask{Pattern: fmt.Sprintf(
				`view < -> name -> "Supplier %03d", -> city -> C, -> zip -> Z >`, sup), Functors: []string{f}})
		}
	}
	if name == "hot-ask" {
		// On a 2-vCPU VM hot-ask paces at about a sixth of its max_qps
		// and fanout-ask at a third: low enough that the short stalls
		// of a shared host do not build queues that decide p99.
		s.rate = 400
		for v := 1; v <= views; v++ {
			s.asks = append(s.asks, ask{Pattern: viewPattern, Functors: []string{fmt.Sprintf("Pview%d", v)}})
		}
	} else {
		s.rate = 110
		s.shards = 2
		s.asks = []ask{{Pattern: viewPattern}}
	}
	s.warm = s.asks
	return s
}

// churnName is the store name of entry j of family fam.
func churnName(fam, j int) string { return fmt.Sprintf("p%d_%04d", fam, j) }

func churnSpec(seed uint64) *spec {
	s := &spec{name: "refresh-churn", seed: seed, progText: workload.PartitionedProgram(churnFamilies),
		rate: 500, refreshEvery: time.Second}
	s.prog = yatl.MustParse(s.progText)
	parts := make([]*tree.Store, churnSources)
	for i := range parts {
		parts[i] = tree.NewStore()
	}
	perSource := churnFamilies / churnSources
	askOf := map[string]int{}
	for fam := 1; fam <= churnFamilies; fam++ {
		f := fmt.Sprintf("Ppart%d", fam)
		s.warm = append(s.warm, ask{Pattern: `item < -> name -> N, -> idx -> K >`, Functors: []string{f}})
		for j := 0; j < churnPerFamily; j++ {
			idx := int64(mix(seed, uint64(fam*1000+j)) % 100000)
			n, t := workload.PartitionedEntry(fam, fmt.Sprintf("%04d", j), idx)
			parts[(fam-1)/perSource].Put(n, t)
			askOf[churnName(fam, j)] = len(s.asks)
			s.asks = append(s.asks, ask{Pattern: fmt.Sprintf(
				`item < -> name -> "n%d_%04d", -> idx -> K >`, fam, j), Functors: []string{f}})
		}
	}
	s.points = s.asks
	s.store = mergeStores(parts)
	s.script = genScript(seed, parts, scriptSteps)
	s.askOf = askOf
	return s
}

// affected lists the functor groups and the distinct asks a
// refresh-churn step touches.
func (s *spec) affected(st step) (functors []string, asks []int) {
	names := append([]string(nil), st.Delete...)
	for _, e := range st.ins {
		names = append(names, e.Name.String())
	}
	seen := map[string]bool{}
	for _, n := range names {
		var fam int
		fmt.Sscanf(n, "p%d_", &fam)
		if f := fmt.Sprintf("Ppart%d", fam); !seen[f] {
			seen[f] = true
			functors = append(functors, f)
		}
		asks = append(asks, s.askOf[n])
	}
	return functors, asks
}

func mergeStores(parts []*tree.Store) *tree.Store {
	out := tree.NewStore()
	for _, p := range parts {
		for _, e := range p.Entries() {
			out.Put(e.Name, e.Tree)
		}
	}
	return out
}

// genScript draws n refresh steps over refresh-churn's sources: pairs
// of a deletion of refreshBatch entries in one source and the
// re-insertion of those entries into the same source. A re-inserted
// entry carries a new idx, so every refresh changes the answer of the
// asks it touches.
func genScript(seed uint64, base []*tree.Store, n int) *script {
	r := &rng{seed: seed ^ 0x5C41}
	cur := append([]*tree.Store(nil), base...)
	var steps []step
	for pair := 0; len(steps) < n; pair++ {
		src := r.intn(len(base))
		entries := cur[src].Entries()
		picked := map[int]bool{}
		del := step{Source: src}
		ins := step{Source: src}
		for len(picked) < refreshBatch && len(picked) < len(entries) {
			k := r.intn(len(entries))
			if picked[k] {
				continue
			}
			picked[k] = true
			e := entries[k]
			del.Delete = append(del.Delete, e.Name.String())
			var fam int
			var id string
			fmt.Sscanf(strings.Replace(e.Name.String(), "_", " ", 1), "p%d %s", &fam, &id)
			name, t := workload.PartitionedEntry(fam, id, int64(mix(seed^0x1D, uint64(pair))%100000))
			ins.ins = append(ins.ins, tree.StoreEntry{Name: name, Tree: t})
		}
		ins.Insert = formatEntries(ins.ins)
		steps = append(steps, del, ins)
		// Only the source's store matters for the next draw; the
		// versions are rebuilt by buildVersions.
		after := applyStep(cur[src], del)
		cur[src] = applyStep(after, ins)
	}
	sc := &script{steps: steps[:n]}
	for i := range base {
		sc.names = append(sc.names, fmt.Sprintf("src%d", i+1))
	}
	sc.versions = buildVersions(base, sc.steps)
	return sc
}

func formatEntries(es []tree.StoreEntry) string {
	st := tree.NewStore()
	for _, e := range es {
		st.Put(e.Name, e.Tree)
	}
	return tree.FormatStore(st)
}

func applyStep(st *tree.Store, s step) *tree.Store {
	out := st.Clone()
	for _, n := range s.Delete {
		out.Delete(tree.PlainName(n))
	}
	for _, e := range s.ins {
		out.Put(e.Name, e.Tree)
	}
	return out
}

// buildVersions replays steps over the base sources. Sources a step
// does not touch share the previous version's store.
func buildVersions(base []*tree.Store, steps []step) [][]*tree.Store {
	vs := [][]*tree.Store{append([]*tree.Store(nil), base...)}
	for _, s := range steps {
		next := append([]*tree.Store(nil), vs[len(vs)-1]...)
		next[s.Source] = applyStep(next[s.Source], s)
		vs = append(vs, next)
	}
	return vs
}

// merged is every source of version v as one store, in declaration
// order (the order the mediator merges sources in).
func (sc *script) merged(v int) *tree.Store { return mergeStores(sc.versions[v]) }

// scriptFile is the on-disk form of a script handed to the
// refresh-churn server.
type scriptFile struct {
	Sources []string `json:"sources"`
	Steps   []step   `json:"steps"`
}

// writeInputs writes the generated inputs the server is handed into
// dir: the program, and either the whole store (yatserve -input) or
// one store per source plus the refresh script.
func (s *spec) writeInputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{"program.yatl": s.progText}
	if s.refreshEvery == 0 {
		files["store.yat"] = tree.FormatStore(s.store)
	} else {
		for i, n := range s.script.names {
			files[n+".yat"] = tree.FormatStore(s.script.versions[0][i])
		}
		js, err := json.Marshal(scriptFile{Sources: s.script.names, Steps: s.script.steps})
		if err != nil {
			return err
		}
		files["script.json"] = string(js)
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// readScript loads what writeInputs wrote for a refresh-churn server.
func readScript(dir string) (*script, error) {
	data, err := os.ReadFile(filepath.Join(dir, "script.json"))
	if err != nil {
		return nil, err
	}
	var f scriptFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("script.json: %w", err)
	}
	base := make([]*tree.Store, len(f.Sources))
	for i, n := range f.Sources {
		text, err := os.ReadFile(filepath.Join(dir, n+".yat"))
		if err != nil {
			return nil, err
		}
		if base[i], err = tree.ParseStore(string(text)); err != nil {
			return nil, fmt.Errorf("%s.yat: %w", n, err)
		}
	}
	for i := range f.Steps {
		st := &f.Steps[i]
		if st.Source < 0 || st.Source >= len(base) {
			return nil, fmt.Errorf("script step %d: source %d out of range", i, st.Source)
		}
		if st.Insert != "" {
			ins, err := tree.ParseStore(st.Insert)
			if err != nil {
				return nil, fmt.Errorf("script step %d: %w", i, err)
			}
			st.ins = ins.Entries()
		}
	}
	return &script{names: f.Sources, steps: f.Steps, versions: buildVersions(base, f.Steps)}, nil
}
