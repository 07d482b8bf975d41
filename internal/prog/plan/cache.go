package plan

import (
	"sync"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// recipe is an unbound, immutable compilation result: the tape in
// topological order plus the lowered instruction per node. Recipes
// depend on the node array, the input arity, and the suite (absint
// folding uses the suite's input facts) — not on the root, which only
// selects which finished column the cost path reads — so programs
// differing in root alone share one recipe. Once published to the
// cache a recipe is read-only and safe to share across States and
// goroutines.
type recipe struct {
	order []int32
	ops   []compiledOp
	fused int64
}

// cacheKey identifies a program shape. The suite enters by pointer
// identity: input facts are derived from the suite's cases, and a
// search run evaluates against exactly one suite for its lifetime.
type cacheKey struct {
	suite *testcase.Suite
	hash  uint64
}

// cacheEntry pairs the recipe with the exact shape it was compiled
// from, so a hash collision degrades to a recompile instead of a
// wrong tape.
type cacheEntry struct {
	nodes     []prog.Node
	numInputs int
	rec       *recipe
}

// recipeCache amortizes full compiles across restarts and checkpoint
// restores, which re-seed from identical or previously seen programs
// constantly. Restart-tree searches reset thousands of times per
// second, so this is a hot map; the bound keeps a pathological
// never-repeating workload from growing it without limit.
var recipeCache struct {
	mu sync.Mutex
	m  map[cacheKey][]cacheEntry
}

const recipeCacheMax = 4096

// shapeHash is FNV-1a over the node array and input arity.
func shapeHash(p *prog.Program) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(p.NumInputs))
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		mix(uint64(nd.Op))
		mix(uint64(uint32(nd.Args[0]))<<32 | uint64(uint32(nd.Args[1])))
		mix(nd.Val)
	}
	return h
}

// sameShape reports whether the cached entry was compiled from
// exactly this program shape.
func sameShape(e *cacheEntry, p *prog.Program) bool {
	if e.numInputs != p.NumInputs || len(e.nodes) != len(p.Nodes) {
		return false
	}
	for i := range e.nodes {
		if e.nodes[i] != p.Nodes[i] {
			return false
		}
	}
	return true
}

// lookupRecipe returns the recipe for p's shape, compiling and
// publishing it on a miss. The bool reports a cache hit.
func lookupRecipe(e *State, p *prog.Program) (*recipe, bool) {
	key := cacheKey{suite: e.suite, hash: shapeHash(p)}
	recipeCache.mu.Lock()
	for i := range recipeCache.m[key] {
		ent := &recipeCache.m[key][i]
		if sameShape(ent, p) {
			rec := ent.rec
			recipeCache.mu.Unlock()
			return rec, true
		}
	}
	recipeCache.mu.Unlock()

	// Compile outside the lock: absint analysis and lowering are the
	// expensive part, and concurrent States compiling the same shape
	// just race benignly to publish identical recipes.
	rec := e.compileFull(p)

	recipeCache.mu.Lock()
	if recipeCache.m == nil || len(recipeCache.m) >= recipeCacheMax {
		recipeCache.m = make(map[cacheKey][]cacheEntry)
	}
	recipeCache.m[key] = append(recipeCache.m[key], cacheEntry{
		nodes:     append([]prog.Node(nil), p.Nodes...),
		numInputs: p.NumInputs,
		rec:       rec,
	})
	recipeCache.mu.Unlock()
	return rec, false
}
