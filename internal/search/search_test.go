package search

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// solveVals is shared scratch for cost.Solves checks in tests.
var solveVals [prog.MaxNodes]uint64

// suiteFor builds a deterministic suite for the reference expression.
func suiteFor(t *testing.T, expr string, numInputs, cases int) *testcase.Suite {
	t.Helper()
	ref := prog.MustParse(expr, numInputs)
	rng := rand.New(rand.NewPCG(100, 200))
	return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) },
		numInputs, cases, rng)
}

func TestSolvesModelProblem(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7})
	used, done := r.Step(500_000)
	if !done {
		t.Fatalf("model problem not solved in %d iterations", used)
	}
	if r.Cost() != 0 {
		t.Errorf("done with cost %g", r.Cost())
	}
	sol := r.Solution()
	if sol == nil {
		t.Fatal("no solution recorded")
	}
	if err := sol.Validate(); err != nil {
		t.Fatal(err)
	}
	// The solution must actually solve the suite.
	if !cost.Solves(sol, suite, solveVals[:]) {
		t.Error("recorded solution does not match the suite")
	}
}

func TestSolvesFullDialect(t *testing.T) {
	suite := suiteFor(t, "andq(x, subq(x, 1))", 1, 100)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: 3})
	if _, done := r.Step(3_000_000); !done {
		t.Fatal("hd01 not solved within 3M iterations")
	}
	if !cost.Solves(r.Solution(), suite, solveVals[:]) {
		t.Error("solution does not match the suite")
	}
}

func TestStepBudgetExact(t *testing.T) {
	// An unsolvable-within-budget run must consume exactly the budget.
	suite := suiteFor(t, "mulq(mulq(x, x), addq(x, y))", 2, 100)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 1})
	used, done := r.Step(1000)
	if done {
		t.Skip("surprisingly solved; budget accounting untestable here")
	}
	if used != 1000 {
		t.Errorf("Step used %d of budget 1000", used)
	}
	if r.Iterations() != 1000 {
		t.Errorf("Iterations = %d, want 1000", r.Iterations())
	}
}

func TestStepAfterDoneIsNoop(t *testing.T) {
	suite := suiteFor(t, "x", 1, 10)
	// The constant-zero initial program has nonzero cost; identity is
	// found almost immediately with an operand move.
	r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Seed: 2})
	if _, done := r.Step(100_000); !done {
		t.Fatal("identity not synthesized")
	}
	iters := r.Iterations()
	used, done := r.Step(1000)
	if used != 0 || !done {
		t.Errorf("Step after done = (%d, %v), want (0, true)", used, done)
	}
	if r.Iterations() != iters {
		t.Error("iterations advanced after done")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	run := func() (int64, bool, string) {
		r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 55})
		used, done := r.Step(500_000)
		s := ""
		if done {
			s = r.Solution().String()
		}
		return used, done, s
	}
	u1, d1, s1 := run()
	u2, d2, s2 := run()
	if u1 != u2 || d1 != d2 || s1 != s2 {
		t.Errorf("same seed diverged: (%d,%v,%q) vs (%d,%v,%q)", u1, d1, s1, u2, d2, s2)
	}
}

func TestSeedsDiffer(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	iters := map[int64]bool{}
	for seed := uint64(1); seed <= 6; seed++ {
		r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: seed})
		used, _ := r.Step(500_000)
		iters[used] = true
	}
	if len(iters) < 3 {
		t.Errorf("6 seeds produced only %d distinct iteration counts", len(iters))
	}
}

func TestBetaZeroGreedy(t *testing.T) {
	// With beta = 0 the accepted cost must never increase.
	suite := suiteFor(t, "orq(andq(x, y), 5)", 2, 50)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 0, Seed: 5, TraceCosts: true})
	r.Step(100_000)
	trace := r.Trace()
	for i := 1; i < len(trace); i++ {
		if trace[i].Cost > trace[i-1].Cost {
			t.Fatalf("beta=0 accepted a cost increase: %g -> %g", trace[i-1].Cost, trace[i].Cost)
		}
	}
}

func TestTraceRecordsDescent(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7, TraceCosts: true})
	_, done := r.Step(500_000)
	if !done {
		t.Skip("did not finish")
	}
	trace := r.Trace()
	if len(trace) < 2 {
		t.Fatalf("trace has %d points", len(trace))
	}
	if trace[len(trace)-1].Cost != 0 {
		t.Errorf("final trace cost = %g, want 0", trace[len(trace)-1].Cost)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Iteration < trace[i-1].Iteration {
			t.Error("trace iterations not monotone")
		}
	}
}

func TestTraceBoundedMemory(t *testing.T) {
	// A long run with frequent cost changes must keep the trace under
	// the thinning bound.
	suite := suiteFor(t, "mulq(x, mulq(x, x))", 1, 100)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.LogDiff, Beta: 20, Seed: 9, TraceCosts: true})
	r.Step(300_000)
	if n := len(r.Trace()); n > 4096 {
		t.Errorf("trace grew to %d points", n)
	}
}

func TestInitProgram(t *testing.T) {
	suite := suiteFor(t, "addq(x, 1)", 1, 50)
	init := prog.MustParse("addq(x, 2)", 1)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 4, Init: init})
	// Starting one constant off, this should be found very fast.
	if _, done := r.Step(200_000); !done {
		t.Error("near-solution init did not converge quickly")
	}
}

func TestInitAlreadySolved(t *testing.T) {
	suite := suiteFor(t, "addq(x, 1)", 1, 50)
	init := prog.MustParse("addq(x, 1)", 1)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Seed: 4, Init: init})
	if !r.Done() {
		t.Error("run with solving init not immediately done")
	}
	used, done := r.Step(100)
	if used != 0 || !done {
		t.Error("Step on pre-solved run did work")
	}
}

func TestStateHookSeesFinalState(t *testing.T) {
	suite := suiteFor(t, "x", 1, 10)
	sawZeroCost := false
	var vals [prog.MaxNodes]uint64
	r := New(suite, Options{
		Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Seed: 2,
		StateHook: func(p *prog.Program) {
			if cost.Hamming.Of(p, suite, vals[:]) == 0 {
				sawZeroCost = true
			}
		},
	})
	if _, done := r.Step(200_000); !done {
		t.Skip("identity not found")
	}
	if !sawZeroCost {
		t.Error("state hook never observed the final state")
	}
}

func TestFactoryIndependence(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	f := NewFactory(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 42})
	s1 := f(0)
	s2 := f(1)
	u1, _ := s1.Step(5000)
	u2, _ := s2.Step(5000)
	_ = u1
	_ = u2
	// Same id must reproduce the same search.
	s3 := f(0)
	s1b := f(0)
	a, da := s3.Step(2000)
	b, db := s1b.Step(2000)
	if a != b || da != db {
		t.Error("factory is not deterministic per id")
	}
}

func TestPropertyCostNeverNegative(t *testing.T) {
	suite := suiteFor(t, "xor(x, shr(x))", 1, 16)
	f := func(seed uint64) bool {
		r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 2, Redundancy: true, Seed: seed})
		r.Step(3000)
		return r.Cost() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunToCompletion(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	s := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7})
	used, done := RunToCompletion(s, 500_000)
	if !done || used <= 0 {
		t.Errorf("RunToCompletion = (%d, %v)", used, done)
	}
}

func TestMinimizeSizeMode(t *testing.T) {
	suite := suiteFor(t, "mulq(x, 3)", 1, 60)
	init := prog.MustParse("addq(addq(x, x), mulq(x, 1))", 1)
	r := New(suite, Options{
		Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 6,
		Init: init, MinimizeSize: true,
	})
	if r.Best() == nil {
		t.Fatal("correct init not recorded as best")
	}
	used, done := r.Step(500_000)
	if done {
		t.Error("minimize mode must never report done")
	}
	if used != 500_000 {
		t.Errorf("consumed %d iterations", used)
	}
	best := r.Best()
	if best == nil {
		t.Fatal("no best program")
	}
	if !cost.Solves(best, suite, solveVals[:]) {
		t.Error("best program is incorrect")
	}
	if best.BodyLen() > init.BodyLen() {
		t.Errorf("best grew: %d -> %d", init.BodyLen(), best.BodyLen())
	}
}

// TestNearSolutionProposalsStillProbe pins the other side of the lazy
// acceptance threshold: a size-minimizing run from a correct 100-case
// solution keeps its bound below the probe threshold, so the bound must
// still be computed up front and proposals the 16-case probe already
// rejects must skip the remaining cases.
func TestNearSolutionProposalsStillProbe(t *testing.T) {
	suite := suiteFor(t, "andq(x, subq(x, 1))", 1, 100)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 5,
		Init: prog.MustParse("andq(x, subq(x, 1))", 1), MinimizeSize: true})
	r.Step(5000)
	if st := r.EvalStats(); st.CasesEvaluated >= st.CasesTotal {
		t.Fatalf("no case skipped near a solution: %+v", st)
	}
}

func TestMinimizeFromScratch(t *testing.T) {
	// Without an init, minimize mode should still find and record a
	// correct program for an easy spec.
	suite := suiteFor(t, "orq(x, y)", 2, 60)
	r := New(suite, Options{
		Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: 8, MinimizeSize: true,
	})
	r.Step(2_000_000)
	if r.Best() == nil {
		t.Fatal("never found a correct program")
	}
	if !cost.Solves(r.Best(), suite, solveVals[:]) {
		t.Error("best program incorrect")
	}
}

func TestMoveStats(t *testing.T) {
	suite := suiteFor(t, "mulq(x, mulq(x, x))", 1, 50)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: 12})
	r.Step(20_000)
	st := r.MoveStats()
	if got := st.TotalProposed(); got != 20_000 {
		t.Errorf("proposed %d, want 20000", got)
	}
	if st.TotalAccepted() == 0 || st.TotalAccepted() > st.TotalProposed() {
		t.Errorf("accepted %d of %d", st.TotalAccepted(), st.TotalProposed())
	}
	rate := st.AcceptanceRate()
	if rate <= 0 || rate >= 1 {
		t.Errorf("acceptance rate %g", rate)
	}
	// All three baseline moves must have been proposed.
	for mv := 0; mv < 3; mv++ {
		if st.Proposed[mv] == 0 {
			t.Errorf("move %d never proposed", mv)
		}
	}
}
