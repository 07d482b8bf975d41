package mutate

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// TestDebugGateAcceptsAllMoves runs every move type many times with
// the invariant gate on, keeping and collecting every move the way an
// accepting commit does: a panic here is a mutator bug.
func TestDebugGateAcceptsAllMoves(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	suite := testcase.Generate(func(in []uint64) uint64 { return in[0] | in[1] },
		2, 8, rand.New(rand.NewPCG(3, 4)))
	for _, set := range []*prog.OpSet{prog.FullSet, prog.ModelSet} {
		m := New(set, suite, set == prog.ModelSet)
		rng := rand.New(rand.NewPCG(99, 1))
		p := prog.NewZero(2)
		for step := 0; step < 3000; step++ {
			m.Apply(p, rng) // panics on an invariant violation
			p.GC()
		}
	}
}

// TestDebugGatePanicsOnViolation plants a corrupted program and checks
// the gate actually fires: a move that "succeeds" on a program left
// invalid must panic rather than let the search continue on it.
func TestDebugGatePanicsOnViolation(t *testing.T) {
	SetDebugChecks(true)
	defer SetDebugChecks(false)

	p, err := prog.Parse("notq(x)", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: plant an unreachable body node. A committed program
	// never has one (moves may leave dead nodes, but the commit
	// collects them), so the gate fires before the move starts.
	p.Nodes = append(p.Nodes, prog.Node{Op: prog.OpConst, Val: 7})
	p.Invalidate()

	m := New(prog.FullSet, nil, false)
	rng := rand.New(rand.NewPCG(5, 6))
	defer func() {
		if recover() == nil {
			t.Error("debug gate did not panic on a corrupted program")
		}
	}()
	if !m.ApplyMove(p, MoveOpcode, rng) {
		t.Error("opcode move found no candidate (gate never ran)")
	}
	t.Error("gate did not fire after a successful move on a corrupted program")
}

// TestDebugGateCatchesConstantEdits checks the gate's constness
// invariant on its own: an edit that rewrites a pre-existing
// constant's value, or turns a pre-existing constant into an
// instruction, leaves a valid program behind, so only that invariant
// can catch it.
func TestDebugGateCatchesConstantEdits(t *testing.T) {
	pre, err := prog.Parse("addq(x, 5)", 1)
	if err != nil {
		t.Fatal(err)
	}
	k := -1
	for i, nd := range pre.Nodes {
		if nd.Op == prog.OpConst {
			k = i
		}
	}
	if k < 0 {
		t.Fatalf("no constant node in %s", pre)
	}
	for name, edit := range map[string]func(nd *prog.Node){
		"value":     func(nd *prog.Node) { nd.Val++ },
		"constness": func(nd *prog.Node) { *nd = prog.Node{Op: prog.OpNot, Args: [prog.MaxArity]int32{0}} },
	} {
		p := pre.Clone()
		edit(&p.Nodes[k])
		p.Invalidate()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s edit of constant node %d passed the gate", name, k)
				}
			}()
			checkMove(pre, p, MoveOpcode)
		}()
	}
}

func TestSetDebugChecksToggle(t *testing.T) {
	if DebugChecks() {
		t.Fatal("debug checks unexpectedly on at test start")
	}
	SetDebugChecks(true)
	if !DebugChecks() {
		t.Error("SetDebugChecks(true) did not stick")
	}
	SetDebugChecks(false)
	if DebugChecks() {
		t.Error("SetDebugChecks(false) did not stick")
	}
}
