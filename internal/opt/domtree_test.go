package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fuzzgen"
	"repro/internal/ir"
	"repro/internal/opt"
)

// referenceDominators is the classic iterative dataflow formulation of
// dominance over map-of-map sets, kept as the reference opt.DomTree is
// checked against. The returned map gives, for each block, the set of
// blocks that dominate it (including itself); an unreachable block keeps
// the full set, so dominance over dead code is vacuous.
func referenceDominators(fn *ir.Func) map[*ir.Block]map[*ir.Block]bool {
	blocks := fn.Blocks
	if len(blocks) == 0 {
		return nil
	}
	entry := fn.Entry()
	all := map[*ir.Block]bool{}
	for _, b := range blocks {
		all[b] = true
	}
	dom := map[*ir.Block]map[*ir.Block]bool{}
	dom[entry] = map[*ir.Block]bool{entry: true}
	for _, b := range blocks {
		if b != entry {
			s := map[*ir.Block]bool{}
			for k := range all {
				s[k] = true
			}
			dom[b] = s
		}
	}
	reach := fn.Reachable()
	preds := fn.Preds()
	changed := true
	for changed {
		changed = false
		for _, b := range blocks {
			if b == entry || !reach[b] {
				continue
			}
			var meet map[*ir.Block]bool
			for _, p := range preds[b] {
				if meet == nil {
					meet = map[*ir.Block]bool{}
					for k := range dom[p] {
						meet[k] = true
					}
				} else {
					for k := range meet {
						if !dom[p][k] {
							delete(meet, k)
						}
					}
				}
			}
			if meet == nil {
				meet = map[*ir.Block]bool{}
			}
			meet[b] = true
			if len(meet) != len(dom[b]) {
				dom[b] = meet
				changed = true
				continue
			}
			for k := range meet {
				if !dom[b][k] {
					dom[b] = meet
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// checkDomTree compares opt.DomTree's Dominates with the reference on
// every ordered pair of fn's blocks.
func checkDomTree(t *testing.T, where string, fn *ir.Func) {
	t.Helper()
	ref := referenceDominators(fn)
	dom := opt.NewDomTree(fn)
	for _, a := range fn.Blocks {
		for _, b := range fn.Blocks {
			if got, want := dom.Dominates(a, b), ref[b][a]; got != want {
				t.Fatalf("%s: Dominates(b%d, b%d) = %v, reference says %v\n%s",
					where, a.ID, b.ID, got, want, fn)
			}
		}
	}
}

// cfgOf builds a function whose block i branches to succs[i]: no
// successor is a return, one a br, two a condbr.
func cfgOf(succs [][]int) *ir.Func {
	f := &ir.Func{Name: "f", NTemp: 1}
	for range succs {
		f.NewBlock()
	}
	for i, ss := range succs {
		b := f.Blocks[i]
		switch len(ss) {
		case 0:
			ret(b)
		case 1:
			br(b, f.Blocks[ss[0]])
		default:
			condbr(b, ir.TempVal(0), f.Blocks[ss[0]], f.Blocks[ss[1]])
		}
	}
	return f
}

// maxFuzzBlocks bounds the CFGs FuzzDominators decodes.
const maxFuzzBlocks = 32

// decodeCFG reads a successor list from fuzz bytes: a block count, then
// per block a successor count (mod 3) and that many targets (mod the
// block count). Missing bytes read as zero.
func decodeCFG(data []byte) [][]int {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%maxFuzzBlocks
	succs := make([][]int, n)
	k := 1
	for i := range succs {
		ns := at(k) % 3
		k++
		for j := 0; j < ns; j++ {
			succs[i] = append(succs[i], at(k)%n)
			k++
		}
	}
	return succs
}

// encodeCFG is decodeCFG's inverse, for the seed corpus.
func encodeCFG(succs [][]int) []byte {
	data := []byte{byte(len(succs) - 1)}
	for _, ss := range succs {
		data = append(data, byte(len(ss)))
		for _, s := range ss {
			data = append(data, byte(s))
		}
	}
	return data
}

// handBuiltCFGs are the shapes where a dominance algorithm's corner cases
// live; block 0 is the entry. They seed FuzzDominators, so every plain
// go test run compares the tree with the reference on them.
var handBuiltCFGs = []struct {
	name  string
	succs [][]int
}{
	{"single block", [][]int{{}}},
	{"self-loop", [][]int{{1}, {1, 2}, {}}},
	// b3 is unreachable but still a CFG predecessor of b1.
	{"unreachable predecessor", [][]int{{1, 2}, {1, 4}, {}, {1}, {}}},
	{"back edge into the entry", [][]int{{1}, {0, 2}, {}}},
	// b1 and b2 both enter the cycle b1 <-> b2 from the entry, so neither
	// dominates the other.
	{"irreducible two-entry loop", [][]int{{1, 2}, {2, 3}, {1, 3}, {}}},
	{"diamond", [][]int{{1, 2}, {3}, {3}, {}}},
	// The left arm's inner block b3 is reached through b1 only, but its
	// join b5 also through b2, so b1's subtree is not its DFS subtree.
	{"nested arms", [][]int{{1, 2}, {3, 5}, {5}, {4}, {5}, {}}},
	{"unreachable cycle", [][]int{{}, {2}, {1}}},
}

// TestDomTreeMatchesReferenceAcrossPipelines compares the tree with the
// reference on every function of 200 fuzzed programs at every pass
// boundary of the gc and clang trunk -O2 pipelines, the CFGs the
// optimizer actually queries.
func TestDomTreeMatchesReferenceAcrossPipelines(t *testing.T) {
	cfgs := []compiler.Config{
		{Family: compiler.GC, Version: "trunk", Level: "O2"},
		{Family: compiler.CL, Version: "trunk", Level: "O2"},
	}
	for seed := int64(0); seed < 200; seed++ {
		m0, err := compiler.Frontend(fuzzgen.GenerateSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			m := m0.Clone()
			o := opt.Options{BisectLimit: -1, Defects: compiler.ActiveDefects(cfg), Level: cfg.Level}
			check := func(after string) {
				for _, f := range m.Funcs {
					if !f.Opaque {
						checkDomTree(t, fmt.Sprintf("seed %d %s after %s: %s", seed, cfg, after, f.Name), f)
					}
				}
			}
			check("frontend")
			for _, p := range compiler.Pipeline(cfg) {
				opt.RunPipeline(m, []opt.Pass{p}, o)
				check(p.Name())
			}
		}
	}
}

// FuzzDominators decodes a CFG of at most maxFuzzBlocks blocks and
// compares the tree with the reference on every block pair.
func FuzzDominators(f *testing.F) {
	for _, c := range handBuiltCFGs {
		f.Add(encodeCFG(c.succs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := cfgOf(decodeCFG(data))
		checkDomTree(t, "fuzzed CFG", fn)
		opt.FindLoops(fn)
	})
}
