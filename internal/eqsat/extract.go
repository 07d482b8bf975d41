package eqsat

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
)

// Extraction node costs mirror the size term of the search's
// MinimizeSize mode (search.Options.SizeWeight per live body node):
// inputs are free (they always exist), constants and instructions
// each cost one emitted body node. Tree cost — not DAG cost — is minimized, which
// makes the children of any minimum-cost enode themselves minimum-cost
// and lets extraction finalize classes in strictly increasing cost
// order.
const infCost = int(1) << 30

// Extract returns the minimum-cost program equivalent to class root,
// or false when no finite-cost term exists (impossible for classes
// reached from AddProgram) or the result does not fit prog's body
// limit. Ties between equal-cost enodes are broken by a canonical
// expression key, which depends only on the terms — never on class
// ids — so equal graphs extract byte-identical programs.
func (g *EGraph) Extract(root classID, numInputs int) (*prog.Program, bool) {
	g.stats.Extractions++
	root = g.find(root)
	n := len(g.classes)

	// Fixpoint the per-class minimum tree cost. Classes whose fact is
	// empty are cut up front: an empty fact means no concrete value can
	// inhabit the class (an unsoundness canary — see FactConflicts), so
	// nothing may be extracted from or through it.
	cost := make([]int, n)
	for i := range cost {
		cost[i] = infCost
	}
	for c := 0; c < n; c++ {
		cls := g.classes[c]
		if cls != nil && g.find(classID(c)) == classID(c) && cls.fact.Empty() {
			g.stats.EmptyClasses++
		}
	}
	for {
		changed := false
		for c := 0; c < n; c++ {
			cls := g.classes[c]
			if cls == nil || g.find(classID(c)) != classID(c) || cls.fact.Empty() {
				continue
			}
			for _, nd := range cls.nodes {
				if nc := g.nodeCost(nd, cost); nc < cost[c] {
					cost[c] = nc
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if cost[root] >= infCost {
		return nil, false
	}

	// Choose each class's enode in increasing cost order: every child
	// of a minimum-cost enode has strictly smaller cost, so its key is
	// final when the parent is decided.
	reps := make([]classID, 0, n)
	for c := 0; c < n; c++ {
		if g.classes[c] != nil && g.find(classID(c)) == classID(c) && cost[c] < infCost {
			reps = append(reps, classID(c))
		}
	}
	sort.Slice(reps, func(i, j int) bool {
		if cost[reps[i]] != cost[reps[j]] {
			return cost[reps[i]] < cost[reps[j]]
		}
		return reps[i] < reps[j]
	})
	chosen := make([]enode, n)
	key := make([]string, n)
	for _, c := range reps {
		best := ""
		var bestNode enode
		for _, nd := range g.classes[c].nodes {
			if g.nodeCost(nd, cost) != cost[c] {
				continue
			}
			k := g.nodeKey(nd, key)
			if best == "" || k < best {
				best, bestNode = k, nd
			}
		}
		key[c], chosen[c] = best, bestNode
	}

	// Emit the chosen tree as a program, memoized per class so shared
	// subterms become shared nodes.
	out := &prog.Program{NumInputs: numInputs}
	for i := 0; i < numInputs; i++ {
		out.Nodes = append(out.Nodes, prog.Node{Op: prog.OpInput, Val: uint64(i)})
	}
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	var emit func(classID) int32
	emit = func(c classID) int32 {
		c = g.find(c)
		if remap[c] >= 0 {
			return remap[c]
		}
		nd := chosen[c]
		if nd.op == prog.OpInput {
			remap[c] = int32(nd.val)
			return remap[c]
		}
		var nn prog.Node
		nn.Op = nd.op
		if nd.op == prog.OpConst {
			nn.Val = nd.val
		} else {
			nn.Args[0] = emit(nd.a)
			if nd.op.Arity() == 2 {
				nn.Args[1] = emit(nd.b)
			}
		}
		remap[c] = int32(len(out.Nodes))
		out.Nodes = append(out.Nodes, nn)
		return remap[c]
	}
	out.Root = emit(root)
	if out.BodyLen() > prog.MaxBody || out.Validate() != nil {
		return nil, false
	}
	return out, true
}

// nodeCost is nd's tree cost given the current per-class costs.
func (g *EGraph) nodeCost(nd enode, cost []int) int {
	switch {
	case nd.op == prog.OpInput:
		return 0
	case nd.op == prog.OpConst:
		return 1
	}
	ca := cost[g.find(nd.a)]
	if ca >= infCost {
		return infCost
	}
	total := 1 + ca
	if nd.op.Arity() == 2 {
		cb := cost[g.find(nd.b)]
		if cb >= infCost {
			return infCost
		}
		total += cb
	}
	return total
}

// nodeKey renders nd as a canonical expression string over its
// children's (already final) keys, sorting commutative children so the
// key is independent of class-id assignment.
func (g *EGraph) nodeKey(nd enode, key []string) string {
	switch {
	case nd.op == prog.OpInput:
		return "i" + strconv.FormatUint(nd.val, 10)
	case nd.op == prog.OpConst:
		return "c" + strconv.FormatUint(nd.val, 16)
	}
	ka := key[g.find(nd.a)]
	if nd.op.Arity() == 1 {
		return nd.op.String() + "(" + ka + ")"
	}
	kb := key[g.find(nd.b)]
	if prog.Commutative(nd.op) && kb < ka {
		ka, kb = kb, ka
	}
	var sb strings.Builder
	sb.WriteString(nd.op.String())
	sb.WriteByte('(')
	sb.WriteString(ka)
	sb.WriteByte(',')
	sb.WriteString(kb)
	sb.WriteByte(')')
	return sb.String()
}

// Simplify saturates p under b and extracts the minimum-cost
// equivalent, canonicalized. Extraction is trusted only after passing
// prog.Validate and a deterministic Eval-equality battery; anything
// else falls back to the canonicalized input (counted in
// Stats.Fallbacks), so Simplify never returns a program that computes
// a different function than p.
func Simplify(p *prog.Program, b Budget) (*prog.Program, Stats) {
	if p.LiveBodyLen() != p.BodyLen() {
		// A search proposal still carries the nodes its move unhooked;
		// simplify the program its commit would keep.
		p = p.Clone()
		p.GC()
	}
	g := New(b)
	var q *prog.Program
	if root, ok := g.AddProgram(p); ok {
		g.Saturate()
		if ex, ok := g.Extract(root, p.NumInputs); ok && evalEqual(p, ex) {
			q = ex
		}
	}
	st := g.Stats()
	if q == nil {
		st.Fallbacks++
		q = p
	}
	return analysis.Canonicalize(q), st
}

// EClassHash keys rewrite equivalence: the 64-bit semantic hash of p's
// saturated, extracted, canonicalized form. Programs the rule set can
// prove equal — including across associativity respellings the
// canonicalizer cannot cross — hash identically; the hash is a pure
// function of p and b.
func EClassHash(p *prog.Program, b Budget) (uint64, Stats) {
	q, st := Simplify(p, b)
	return analysis.Hash(q), st
}

// evalEqual checks p and q agree on a fixed battery of corner-case and
// pseudorandom input vectors. The seed is a constant: the check is
// deterministic, so a flaky extraction can never alternate between
// accepted and rejected across runs.
func evalEqual(p, q *prog.Program) bool {
	if p.NumInputs != q.NumInputs {
		return false
	}
	corners := []uint64{
		0, 1, 2, 63, 64, ^uint64(0), ^uint64(0) - 1,
		1 << 63, 1<<63 - 1, 0xffffffff, 1 << 32, 0x0123456789abcdef,
	}
	in := make([]uint64, p.NumInputs)
	for _, v := range corners {
		for i := range in {
			in[i] = v
		}
		if p.Output(in) != q.Output(in) {
			return false
		}
	}
	rng := rand.New(rand.NewPCG(0x5eed5eed5eed5eed, 0xec1a55e0ec1a55e0))
	for t := 0; t < 64; t++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if p.Output(in) != q.Output(in) {
			return false
		}
	}
	return true
}
