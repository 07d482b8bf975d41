package mutate

import (
	"fmt"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
)

// debugChecks gates the post-move invariant checker. Off by default:
// the check walks the whole graph and would dominate the proposal
// cost in the search's hot loop. Enable it with SetDebugChecks (tests,
// bug hunts) or build with -tags stochsyndebug to switch it on for a
// whole binary.
var debugChecks bool

// SetDebugChecks toggles the post-move invariant gate: with it on,
// every successfully applied move re-validates the program's
// structural invariants (acyclicity, no dead code, size limits, zeroed
// unused operand slots) and panics with the offending move and program
// on a violation — a mutator bug, never a legitimate runtime state.
//
// The toggle is process-global and not synchronized; set it before
// starting searches, not while they run.
func SetDebugChecks(on bool) { debugChecks = on }

// DebugChecks reports whether the post-move invariant gate is on.
func DebugChecks() bool { return debugChecks }

// checkStart is called by ApplyMove before a move: moves start from a
// committed program, which has no dead code. It returns a snapshot for
// checkMove.
func checkStart(p *prog.Program, mv Move) *prog.Program {
	if err := analysis.Check(p); err != nil {
		panic(fmt.Sprintf("mutate: %s move started from an invalid program: %v\n  program: %s", mv, err, p))
	}
	return p.Clone()
}

// checkMove is called by ApplyMove after a move reports success, with
// pre the program before the move. The program a commit would keep
// (the proposal, collected) must pass analysis.Check and compute what
// the proposal computes, and the nodes the collection drops must be
// clean: unchanged since pre and reaching no changed node, so no
// evaluation engine ever puts them in a dirty closure. Every node that
// existed before the move must also keep its OpConst-ness and, if it
// is a constant, its value: the plan engine re-lowers only a move's
// seeds and reuses every other node's cached constant folds.
func checkMove(pre, p *prog.Program, mv Move) {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("mutate: %s move: %s\n  before: %s\n  after:  %s", mv, fmt.Sprintf(format, args...), pre, p))
	}
	for i := range pre.Nodes {
		was, now := &pre.Nodes[i], &p.Nodes[i]
		if (was.Op == prog.OpConst) != (now.Op == prog.OpConst) || was.Op == prog.OpConst && was.Val != now.Val {
			fail("node %d changed constness or constant value", i)
		}
	}
	q := p.Clone()
	q.GC()
	if err := analysis.Check(q); err != nil {
		fail("committed program invalid: %v", err)
	}
	var changed uint64
	for i := range p.Nodes {
		if i >= pre.Len() || p.Nodes[i] != pre.Nodes[i] {
			changed |= 1 << uint(i)
		}
	}
	live := p.Reachable() | (uint64(1)<<uint(p.NumInputs) - 1)
	for i := range p.Nodes {
		if live&(1<<uint(i)) == 0 && p.ReachableFrom(int32(i))&changed != 0 {
			fail("dead node %d is not clean", i)
		}
	}
	in := make([]uint64, p.NumInputs)
	for k := uint64(0); k < 8; k++ {
		for i := range in {
			in[i] = (k + uint64(i)) * 0x9e3779b97f4a7c15
		}
		if p.Output(in) != q.Output(in) {
			fail("collection changed the output on %v", in)
		}
	}
}
