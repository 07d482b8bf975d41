package search

import (
	"fmt"
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/eqsat"
	"stochsyn/internal/prog"
)

// TestKnobTrajectoriesPinned pins the end state of searches whose
// knobs read the proposal between the move and the accept decision:
// the size term of MinimizeSize, the abstract-interpretation pruner,
// and the rewrite-equivalence memo. Each row runs on all three
// evaluation arms and must land on the recorded program, cost and
// acceptance count. The table was captured from the search before
// garbage collection moved from the moves to the accepting commit, so
// a consumer that sees a proposal's dead nodes (a size count, an
// e-class hash) diverges here.
func TestKnobTrajectoriesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		expr   string
		inputs int
		opts   func() Options
		steps  int64
		want   string
	}{
		{
			name: "minimize-full", expr: "mulq(x, 3)", inputs: 1, steps: 20_000,
			opts: func() Options {
				return Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 3,
					Init: prog.MustParse("addq(addq(x, x), mulq(x, 1))", 1), MinimizeSize: true}
			},
			want: "prog=addq(addq(x, x), x) cost=2 accepted=4584 evaluated=20000 best=addq(addq(x, x), x)",
		},
		{
			name: "minimize-model", expr: "xor(x, y)", inputs: 2, steps: 20_000,
			opts: func() Options {
				return Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Seed: 11, Redundancy: true,
					Init: prog.MustParse("a = and(x, not(y)); b = and(not(x), y); or(or(a, b), and(a, a))", 2), MinimizeSize: true}
			},
			want: "prog=xor(y, x) cost=1 accepted=3282 evaluated=15073 best=xor(y, x)",
		},
		{
			name: "prune", expr: "mulq(mulq(x, x), addq(x, y))", inputs: 2, steps: 30_000,
			opts: func() Options {
				return Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 5, Prune: true}
			},
			want: "prog=a = andq(iremq(0x100000000000000, x), x); b = tzcntq(zextbq(y)); c = iremq(a, y); d = rorq(c, b); bswapq(sarq(addq(d, x), subl(a, idivq(d, sarq(lzcntq(subq(y, b)), c))))) cost=783 accepted=2458 evaluated=21129",
		},
		{
			name: "eqsat", expr: "mulq(mulq(x, x), addq(x, y))", inputs: 2, steps: 30_000,
			opts: func() Options {
				return Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 5,
					EqSat: eqsat.NewDedup(eqsat.Budget{})}
			},
			want: "prog=a = mulq(y, 0x7ffffffffffff); b = sarq(0x7ffffffffffff, a); c = rorq(b, 0x7ffffffffffff); d = sarl(x, tzcntq(c)); bswapq(andq(xorq(mulq(orl(sarl(a, shll(c, d)), sextbq(shrl(y, lzcntq(y)))), b), d), x)) cost=794 accepted=2194 evaluated=21282",
		},
		{
			name: "eqsat-minimize", expr: "xor(x, y)", inputs: 2, steps: 20_000,
			opts: func() Options {
				return Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 2, Seed: 4, Redundancy: true,
					Init:         prog.MustParse("a = and(x, not(y)); b = and(not(x), y); or(or(a, b), and(a, a))", 2),
					MinimizeSize: true, EqSat: eqsat.NewDedup(eqsat.Budget{})}
			},
			want: "prog=xor(y, x) cost=1 accepted=3882 evaluated=15024 best=xor(y, x)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite := suiteFor(t, tc.expr, tc.inputs, 40)
			for _, arm := range []string{"plan", "interp", "legacy"} {
				o := tc.opts()
				o.InterpEval = arm == "interp"
				o.LegacyEval = arm == "legacy"
				r := New(suite, o)
				r.Step(tc.steps)
				st := r.MoveStats()
				got := fmt.Sprintf("prog=%s cost=%v accepted=%d evaluated=%d", r.Program(), r.Cost(),
					st.TotalAccepted(), st.Evaluated)
				if b := r.Best(); b != nil {
					got += " best=" + b.String()
				}
				if got != tc.want {
					t.Errorf("%s arm:\n got %s\nwant %s", arm, got, tc.want)
				}
			}
		})
	}
}
