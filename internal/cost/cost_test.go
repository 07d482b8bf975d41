package cost

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/testcase"
)

// suiteFor builds a small suite for f.
func suiteFor(t *testing.T, f testcase.Func, numInputs, n int) *testcase.Suite {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 42))
	s := testcase.Generate(f, numInputs, n, rng)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"hamming", Hamming},
		{"inctests", IncorrectTests},
		{"inc", IncorrectTests},
		{"logdiff", LogDiff},
		{"log", LogDiff},
	} {
		got, err := ParseKind(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds {
		name := k.String()
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Errorf("round trip of %v via %q failed", k, name)
		}
	}
}

func TestPerCaseHamming(t *testing.T) {
	if got := Hamming.PerCase(0b1100, 0b1010); got != 2 {
		t.Errorf("hamming = %g, want 2", got)
	}
	if got := Hamming.PerCase(5, 5); got != 0 {
		t.Errorf("hamming equal = %g, want 0", got)
	}
}

func TestPerCaseIncorrectTests(t *testing.T) {
	if got := IncorrectTests.PerCase(1, 2); got != 1 {
		t.Errorf("inctests = %g, want 1", got)
	}
	if got := IncorrectTests.PerCase(9, 9); got != 0 {
		t.Errorf("inctests equal = %g, want 0", got)
	}
}

func TestPerCaseLogDiff(t *testing.T) {
	if got := LogDiff.PerCase(4, 0); got != 3 { // 1 + log2(4)
		t.Errorf("logdiff = %g, want 3", got)
	}
}

func TestPropertyZeroIffEqual(t *testing.T) {
	// All three cost functions are zero exactly when outputs match.
	f := func(got, want uint64) bool {
		for _, k := range Kinds {
			c := k.PerCase(got, want)
			if (c == 0) != (got == want) {
				return false
			}
			if c < 0 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOfMatchesSolves(t *testing.T) {
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 50)
	sol := prog.MustParse("andq(x, subq(x, 1))", 1)
	wrong := prog.MustParse("andq(x, addq(x, 1))", 1)
	var vals [prog.MaxNodes]uint64
	for _, k := range Kinds {
		if c := k.Of(sol, s, vals[:]); c != 0 {
			t.Errorf("%s cost of solution = %g, want 0", k, c)
		}
		if c := k.Of(wrong, s, vals[:]); c <= 0 {
			t.Errorf("%s cost of wrong program = %g, want > 0", k, c)
		}
	}
	if !Solves(sol, s, vals[:]) {
		t.Error("Solves rejected the solution")
	}
	if Solves(wrong, s, vals[:]) {
		t.Error("Solves accepted a wrong program")
	}
}

func TestOfBoundedExact(t *testing.T) {
	// OfBounded must agree with Of whenever the true cost is within
	// the bound, and must return +Inf beyond it.
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 40)
	p := prog.MustParse("andq(x, y)", 2)
	var vals [prog.MaxNodes]uint64
	for _, k := range Kinds {
		full := k.Of(p, s, vals[:])
		if got := k.OfBounded(p, s, vals[:], full); got != full {
			t.Errorf("%s OfBounded(bound=cost) = %g, want %g", k, got, full)
		}
		if got := k.OfBounded(p, s, vals[:], full+1); got != full {
			t.Errorf("%s OfBounded(bound=cost+1) = %g, want %g", k, got, full)
		}
		if got := k.OfBounded(p, s, vals[:], full/2); !math.IsInf(got, 1) {
			t.Errorf("%s OfBounded(bound=cost/2) = %g, want +Inf", k, got)
		}
	}
}

func TestPropertyOfBoundedConsistent(t *testing.T) {
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] + in[1] }, 2, 20)
	f := func(seed uint64, boundRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		// A random small program.
		p := prog.NewZero(2)
		op := prog.FullSet.RandomOp(rng)
		nd := prog.Node{Op: op}
		for a := 0; a < op.Arity(); a++ {
			nd.Args[a] = int32(rng.IntN(len(p.Nodes)))
		}
		p.Nodes = append(p.Nodes, nd)
		p.Root = int32(len(p.Nodes) - 1)
		p.Invalidate()
		p.GC()

		var vals [prog.MaxNodes]uint64
		bound := float64(boundRaw)
		for _, k := range Kinds {
			full := k.Of(p, s, vals[:])
			got := k.OfBounded(p, s, vals[:], bound)
			if full <= bound && got != full {
				return false
			}
			if full > bound && !math.IsInf(got, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeBeta(t *testing.T) {
	if got := NormalizeBeta(1, 100); got != 1 {
		t.Errorf("NormalizeBeta(1, 100) = %g, want 1", got)
	}
	if got := NormalizeBeta(1, 50); got != 0.5 {
		t.Errorf("NormalizeBeta(1, 50) = %g, want 0.5", got)
	}
	if got := NormalizeBeta(2, 200); got != 4 {
		t.Errorf("NormalizeBeta(2, 200) = %g, want 4", got)
	}
}

// TestMaxPerCase checks that maxPerCase is each kind's largest
// per-case cost, reached by the worst output pair.
func TestMaxPerCase(t *testing.T) {
	for _, tc := range []struct {
		k         Kind
		got, want uint64
	}{
		{Hamming, 0, ^uint64(0)},
		{IncorrectTests, 0, 1},
		{LogDiff, 1<<63 - 1, 1 << 63}, // |MaxInt64 - MinInt64| = 2^64 - 1
	} {
		if c := tc.k.PerCase(tc.got, tc.want); c != tc.k.maxPerCase() {
			t.Errorf("%s: worst case costs %g, maxPerCase %g", tc.k, c, tc.k.maxPerCase())
		}
	}
}

// pullCounter counts the blocks OfState pulls from an engine.
type pullCounter struct {
	*prog.EvalState
	pulls int
}

func (c *pullCounter) EvalRange(c0, c1 int) []uint64 {
	c.pulls++
	return c.EvalState.EvalRange(c0, c1)
}

// TestPropertyCaseSchedule pins the case schedule OfState and OfPlan
// share. On random proposals over suites on both sides of EvalChunk,
// and bounds below, at and above the true cost and on both sides of
// EvalChunk × maxPerCase, both engines must return OfBounded's result
// bit for bit (+Inf exactly when it aborts) and evaluate the same
// cases. The schedule is one pull over all cases unless the suite is
// longer than EvalChunk and the bound below the probe threshold; then
// the probe block comes first, and the rest follows unless the probe
// already exceeded the bound.
func TestPropertyCaseSchedule(t *testing.T) {
	ref := prog.MustParse("mulq(mulq(x, x), addq(x, y))", 2)
	for _, n := range []int{10, 16, 17, 100} {
		s := suiteFor(t, func(in []uint64) uint64 { return ref.Output(in) }, 2, n)
		head := &testcase.Suite{NumInputs: 2, Cases: s.Cases[:min(n, prog.EvalChunk)]}
		pe, ie := plan.New(s), &pullCounter{EvalState: prog.NewEvalState(s)}
		m := mutate.New(prog.FullSet, s, false)
		var j prog.Journal
		var vals [prog.MaxNodes]uint64
		for seed := uint64(0); seed < 40; seed++ {
			p := mutate.RandomProgram(seed, 2, int(seed%12))
			pe.Reset(p)
			ie.Reset(p)
			p.BeginEdit(&j)
			if _, ok := m.Apply(p, rand.New(rand.NewPCG(seed, uint64(n)))); !ok {
				p.Rollback()
				continue
			}
			for _, k := range Kinds {
				full := k.Of(p, s, vals[:])
				probe := prog.EvalChunk * k.maxPerCase()
				for _, bound := range []float64{
					0, full / 2, math.Nextafter(full, -1), full, full + 1,
					math.Nextafter(probe, 0), probe, probe + 1, inf,
				} {
					want := k.OfBounded(p, s, vals[:], bound)
					pe0, ie0 := pe.Stats().CasesEvaluated, ie.Stats().CasesEvaluated
					pe.Begin(&j)
					gotPlan := k.OfPlan(pe, bound)
					pe.Abort()
					ie.Begin(&j)
					ie.pulls = 0
					gotState := k.OfState(ie, bound)
					ie.Abort()
					if math.Float64bits(gotPlan) != math.Float64bits(want) || math.Float64bits(gotState) != math.Float64bits(want) {
						t.Fatalf("n=%d seed=%d %s bound=%v: OfPlan %v, OfState %v, OfBounded %v",
							n, seed, k, bound, gotPlan, gotState, want)
					}
					pc, ic := pe.Stats().CasesEvaluated-pe0, ie.Stats().CasesEvaluated-ie0
					if pc != ic {
						t.Fatalf("n=%d seed=%d %s bound=%v: plan evaluated %d cases, interpreted %d",
							n, seed, k, bound, pc, ic)
					}
					wantCases, wantPulls := int64(n), 1
					if n > prog.EvalChunk && bound < probe {
						wantPulls = 2
						if k.Of(p, head, vals[:]) > bound {
							wantCases, wantPulls = prog.EvalChunk, 1
						}
					}
					if pc != wantCases || ie.pulls != wantPulls {
						t.Fatalf("n=%d seed=%d %s bound=%v (cost %v): evaluated %d cases in %d pulls, want %d in %d",
							n, seed, k, bound, full, pc, ie.pulls, wantCases, wantPulls)
					}
				}
			}
			p.Rollback()
		}
	}
}
