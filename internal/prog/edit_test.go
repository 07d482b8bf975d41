package prog_test

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// checkOrder asserts that the program's (possibly cached) topological
// order covers every node and places arguments before their users.
// After a Rollback this validates the journal's restored order cache.
func checkOrder(t *testing.T, p *prog.Program) {
	t.Helper()
	order := p.TopoOrder()
	if len(order) != p.Len() {
		t.Fatalf("topo order covers %d of %d nodes", len(order), p.Len())
	}
	var pos [prog.MaxNodes]int
	for k, i := range order {
		pos[i] = k
	}
	for _, i := range order {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			if pos[nd.Args[a]] >= pos[i] {
				t.Fatalf("node %d ordered before its argument %d", i, nd.Args[a])
			}
		}
	}
}

// checkProposal asserts what the evaluation engines rely on: the only
// nodes a move leaves dead are clean — outside the journal's dirty
// closure, so no engine ever evaluates them — and collecting them
// keeps exactly what the proposal computes.
func checkProposal(t *testing.T, iter int, p *prog.Program, j *prog.Journal, suite *testcase.Suite) {
	t.Helper()
	closure := closeOverUsers(p, j.Dirty())
	live := p.Reachable() | (uint64(1)<<uint(p.NumInputs) - 1)
	for i := 0; i < p.Len(); i++ {
		if live&(1<<uint(i)) == 0 && closure&(1<<uint(i)) != 0 {
			t.Fatalf("iter %d: dead node %d is in the dirty closure\n%s", iter, i, p)
		}
	}
	q := p.Clone()
	q.GC()
	for _, tc := range suite.Cases {
		if got, want := q.Output(tc.Inputs), p.Output(tc.Inputs); got != want {
			t.Fatalf("iter %d: collection changed the output on %v: %#x -> %#x", iter, tc.Inputs, want, got)
		}
	}
}

// closeOverUsers closes a dirty mask over transitive users, in
// topological order (what the engines' Begin computes).
func closeOverUsers(p *prog.Program, dirty uint32) uint32 {
	for _, i := range p.TopoOrder() {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			if dirty&(1<<uint(nd.Args[a])) != 0 {
				dirty |= 1 << uint(i)
				break
			}
		}
	}
	return dirty
}

// TestJournalRollbackUnderMoves drives the real mutation moves through
// journaled in-place edits, accepting a third of the valid proposals
// (so the walk explores program space) and rejecting the rest: every
// proposal may only leave clean dead nodes behind; after every
// Rollback the program must be bit-identical to its pre-edit snapshot
// and its restored topological-order cache must still be a valid
// order; after every accept the collected program must Validate and
// compute what the proposal computed.
func TestJournalRollbackUnderMoves(t *testing.T) {
	dialects := []struct {
		name       string
		set        *prog.OpSet
		redundancy bool
	}{
		{"full", prog.FullSet, false},
		{"model", prog.ModelSet, true},
	}
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(42, 0xed17))
			suite := testcase.Generate(func(in []uint64) uint64 { return in[0] &^ in[1] }, 2, 33, rng)
			mut := mutate.New(d.set, suite, d.redundancy)
			p := prog.NewZero(2)
			var j prog.Journal
			accepted := 0
			for iter := 0; iter < 2000; iter++ {
				snap := p.Clone()
				p.BeginEdit(&j)
				_, ok := mut.Apply(p, rng)
				if ok {
					checkProposal(t, iter, p, &j, suite)
				}
				if ok && rng.IntN(3) == 0 {
					p.EndEdit()
					p.GC()
					accepted++
					if err := p.Validate(); err != nil {
						t.Fatalf("iter %d: accepted program invalid: %v\n%s", iter, err, p)
					}
					continue
				}
				p.Rollback()
				if !p.Equal(snap) {
					t.Fatalf("iter %d: rollback diverged:\n got %s\nwant %s", iter, p, snap)
				}
				checkOrder(t, p)
			}
			if accepted == 0 {
				t.Fatal("no proposal was ever accepted; the walk never moved")
			}
		})
	}
}

// TestJournalDirtyMaskSoundness pins the contract the evaluation
// engines build on: the journal's dirty mask names every node whose
// own content a move changed, so after closing the mask over
// transitive users (exactly what the engines' Begin does), every node
// outside the closure is a pre-edit node at its pre-edit index (an
// edit never renumbers) and computes exactly the value it computed
// before the edit, on every suite input.
func TestJournalDirtyMaskSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xd127))
	suite := testcase.Generate(func(in []uint64) uint64 { return in[0] * in[1] }, 2, 9, rng)
	mut := mutate.New(prog.FullSet, suite, false)
	p := prog.NewZero(2)
	var j prog.Journal
	var valsNew, valsOld [prog.MaxNodes]uint64
	for iter := 0; iter < 2000; iter++ {
		snap := p.Clone()
		p.BeginEdit(&j)
		if _, ok := mut.Apply(p, rng); !ok {
			p.Rollback()
			continue
		}
		p.EndEdit()
		dirty := closeOverUsers(p, j.Dirty())
		for _, tc := range suite.Cases {
			p.Eval(tc.Inputs, valsNew[:])
			snap.Eval(tc.Inputs, valsOld[:])
			for i := 0; i < p.Len(); i++ {
				if dirty&(1<<uint(i)) != 0 {
					continue
				}
				if i >= snap.Len() {
					t.Fatalf("iter %d: clean node %d was appended by the edit", iter, i)
				}
				if valsNew[i] != valsOld[i] {
					t.Fatalf("iter %d inputs %v: clean node %d changed value: %#x -> %#x",
						iter, tc.Inputs, i, valsOld[i], valsNew[i])
				}
			}
		}
		p.GC()
	}
}

// TestJournalNoopEdit checks the cheap-detach path: an edit that never
// writes (an invalid proposal) rolls back for free, leaving both the
// program and its cached order untouched.
func TestJournalNoopEdit(t *testing.T) {
	p := prog.MustParse("andq(x, subq(x, 1))", 1)
	snap := p.Clone()
	p.TopoOrder() // warm the cache
	var j prog.Journal
	p.BeginEdit(&j)
	if j.Mutated(p) {
		t.Fatal("fresh journal reports a mutation")
	}
	p.Rollback()
	if !p.Equal(snap) {
		t.Fatalf("no-op rollback changed the program: %s", p)
	}
	checkOrder(t, p)
}

// TestJournalDirtyIsExact pins the journal's dirty mask to content
// changes: a write of a node's current value (SetArg to the current
// target, SetOp to the same opcode) and a write followed by its
// inverse leave Dirty empty and Mutated false, while Rollback still
// restores the exact program with a valid order cache. Appended nodes
// stay dirty whatever is written to them.
func TestJournalDirtyIsExact(t *testing.T) {
	p := prog.MustParse("andq(x, subq(y, xorq(x, 3)))", 2)
	snap := p.Clone()
	p.TopoOrder() // warm the cache
	root := p.Root
	nd := p.Nodes[root]
	inner := nd.Args[1] // subq(y, ...)
	var j prog.Journal
	edits := []struct {
		name string
		do   func()
	}{
		{"SetArg to the current target", func() { p.SetArg(root, 0, nd.Args[0]) }},
		{"SetOp to the same opcode", func() { p.SetOp(root, nd.Op) }},
		{"SetArg and its inverse", func() {
			p.SetArg(root, 0, inner)
			p.SetArg(root, 0, nd.Args[0])
		}},
		{"SetOp and its inverse", func() {
			p.SetOp(root, prog.OpOr)
			p.SetOp(root, nd.Op)
		}},
		{"arity change and its inverse", func() {
			p.SetOp(root, prog.OpNot)
			p.SetOp(root, nd.Op)
		}},
	}
	for _, ed := range edits {
		p.BeginEdit(&j)
		ed.do()
		if d := j.Dirty(); d != 0 || j.Mutated(p) {
			t.Fatalf("%s: Dirty %#b, Mutated %v; want clean", ed.name, d, j.Mutated(p))
		}
		p.Rollback()
		if !p.Equal(snap) {
			t.Fatalf("%s: rollback changed the program: %s", ed.name, p)
		}
		checkOrder(t, p)
	}

	// A real change stays dirty until undone; appended nodes stay dirty.
	p.BeginEdit(&j)
	p.SetArg(root, 0, inner)
	if d := j.Dirty(); d != 1<<uint(root) {
		t.Fatalf("real write: Dirty %#b, want only node %d", d, root)
	}
	a := p.AppendNode(prog.Node{Op: prog.OpNot, Args: [prog.MaxArity]int32{0}})
	p.SetArg(a, 0, 0)
	p.SetArg(a, 0, 1)
	p.SetArg(a, 0, 0)
	p.SetArg(root, 0, nd.Args[0])
	if d := j.Dirty(); d != 1<<uint(a) {
		t.Fatalf("after append and undo: Dirty %#b, want only appended node %d", d, a)
	}
	p.Rollback()
	if !p.Equal(snap) {
		t.Fatalf("rollback after append: %s, want %s", p, snap)
	}
	checkOrder(t, p)
}
