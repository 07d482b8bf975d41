// Package cost implements the three cost functions of Section 3.2 of
// the paper — Hamming, incorrect test cases, and log-difference — and
// the β normalization rule β' = β·|test cases|/100. Every cost
// function is zero exactly when the candidate output matches the
// desired output on every test case.
package cost

import (
	"fmt"
	"math"

	"stochsyn/internal/bits"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/testcase"
)

// inf is the rejection sentinel returned by OfBounded.
var inf = math.Inf(1)

// Kind selects a cost function.
type Kind uint8

const (
	// Hamming is the total number of incorrect bits across all test
	// cases: the Hamming weight of the XOR of desired and candidate
	// outputs.
	Hamming Kind = iota
	// IncorrectTests counts the test cases that are not entirely
	// correct (differ in at least one bit). It avoids artifacts of the
	// Hamming cost but provides less signal.
	IncorrectTests
	// LogDiff interprets outputs as 64-bit signed integers a and b and
	// charges 1 + log2(|a-b|) per differing case. Most useful when the
	// output is numeric.
	LogDiff

	numKinds
)

// Kinds lists all cost function kinds, in the order the paper's
// evaluation presents them.
var Kinds = []Kind{Hamming, IncorrectTests, LogDiff}

// String returns the evaluation section's name for the cost function.
func (k Kind) String() string {
	switch k {
	case Hamming:
		return "hamming"
	case IncorrectTests:
		return "inctests"
	case LogDiff:
		return "logdiff"
	}
	return fmt.Sprintf("cost(%d)", uint8(k))
}

// ParseKind maps a name (as produced by String) to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "hamming":
		return Hamming, nil
	case "inctests", "incorrect", "inc":
		return IncorrectTests, nil
	case "logdiff", "log":
		return LogDiff, nil
	}
	return 0, fmt.Errorf("cost: unknown cost function %q", name)
}

// PerCase returns the cost contribution of a single test case given
// the candidate output got and desired output want.
func (k Kind) PerCase(got, want uint64) float64 {
	switch k {
	case Hamming:
		return float64(bits.Distance(got, want))
	case IncorrectTests:
		if got != want {
			return 1
		}
		return 0
	case LogDiff:
		return bits.LogDiff(got, want)
	}
	panic("cost: invalid kind")
}

// Of evaluates program p on every case of suite s and returns the
// total cost. vals must have length >= p.Len(); it is scratch space so
// the hot loop performs no allocation. Of is OfBounded with an
// infinite bound: the per-case summation order is identical, so the
// two agree bit-for-bit whenever OfBounded does not abort.
func (k Kind) Of(p *prog.Program, s *testcase.Suite, vals []uint64) float64 {
	return k.OfBounded(p, s, vals, inf)
}

// OfBounded is Of with an early abort: because per-case costs are
// non-negative, once the partial sum exceeds bound the proposal is
// certain to be rejected, so evaluation stops and +Inf is returned.
// The search draws its acceptance threshold before evaluating, which
// makes this optimization exact (it never changes accept/reject
// decisions) while skipping most of the work for bad proposals.
func (k Kind) OfBounded(p *prog.Program, s *testcase.Suite, vals []uint64, bound float64) float64 {
	total := 0.0
	for i := range s.Cases {
		c := &s.Cases[i]
		got := p.Eval(c.Inputs, vals)
		total += k.PerCase(got, c.Output)
		if total > bound {
			return inf
		}
	}
	return total
}

// OfColumn sums the cost over a complete root-value column (one value
// per suite case, in case order), as produced by the evaluation
// engine's committed matrix. The summation order matches Of exactly,
// so the results are bit-equal. The Kind dispatch is hoisted out of
// the per-case loop: each arm is PerCase's body applied in the same
// case order, so hoisting cannot change the float sum.
func (k Kind) OfColumn(root []uint64, s *testcase.Suite) float64 {
	cases := s.Cases
	total := 0.0
	switch k {
	case Hamming:
		for i := range cases {
			total += float64(bits.Distance(root[i], cases[i].Output))
		}
	case IncorrectTests:
		for i := range cases {
			if root[i] != cases[i].Output {
				total++
			}
		}
	case LogDiff:
		for i := range cases {
			total += bits.LogDiff(root[i], cases[i].Output)
		}
	default:
		panic("cost: invalid kind")
	}
	return total
}

// Source is the column producer OfState consumes: an incremental
// evaluation engine with an active proposal. Both the interpreted
// engine (prog.EvalState) and the compiled plan engine (plan.State)
// satisfy it; the cost layer is indifferent to how the root column
// gets computed as long as blocks arrive in case order.
type Source interface {
	// Suite returns the test suite the proposal is evaluated against.
	Suite() *testcase.Suite
	// EvalRange computes the proposal for suite cases [c0, c1) and
	// returns the root values for that range.
	EvalRange(c0, c1 int) []uint64
}

// maxPerCase is the largest cost a single case can contribute: all 64
// bits wrong for Hamming, one case for IncorrectTests, and 1 + log2 of
// the largest difference for LogDiff (float64(2^64-1) rounds to 2^64).
func (k Kind) maxPerCase() float64 {
	switch k {
	case Hamming:
		return 64
	case IncorrectTests:
		return 1
	case LogDiff:
		return 65
	}
	panic("cost: invalid kind")
}

// firstBlock is the case schedule both engines' cost paths share: it
// returns the end of the first of at most two case blocks, [0, c1) and
// [c1, n). A proposal is pulled in one pass over all n cases unless
// its first EvalChunk cases alone could exceed bound, that is, unless
// bound < EvalChunk × maxPerCase; then those cases are pulled first as
// a probe, and the rest only if the probe did not abort. Per-case
// costs are non-negative, so any schedule makes the same abort
// decision; this one keeps the early abort where it can pay (a bound
// near a solution) and otherwise walks the tape once.
func (k Kind) firstBlock(n int, bound float64) int {
	if n > prog.EvalChunk && bound < prog.EvalChunk*k.maxPerCase() {
		return prog.EvalChunk
	}
	return n
}

// OnePass reports whether an n-case proposal is evaluated in one pass
// for every bound at or above lo. firstBlock chooses the probe only
// below a fixed bound, so a caller that knows a lower limit on the
// bound can then compute the total with an infinite bound and compare
// it with the bound afterwards: the same cases are pulled, the same
// total comes back, and the comparison decides as the bounded call
// would.
func (k Kind) OnePass(n int, lo float64) bool { return k.firstBlock(n, lo) == n }

// OfState evaluates the engine's active proposal and returns its total
// cost, aborting with +Inf once the partial sum exceeds bound. It
// pulls root values from the engine in the firstBlock schedule but
// sums and bound-checks per case in case order, so the returned total
// (and the abort decision) is bit-identical to OfBounded on the
// proposal program. A non-Inf return implies every case was pulled,
// which is exactly the precondition of the engines' Commit. As in
// OfColumn, the Kind dispatch runs once per call instead of once per
// case; the per-arm bodies and summation order are unchanged.
func (k Kind) OfState(e Source, bound float64) float64 {
	cases := e.Suite().Cases
	n := len(cases)
	total := 0.0
	switch k {
	case Hamming:
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			for i, got := range e.EvalRange(c0, c1) {
				total += float64(bits.Distance(got, cases[c0+i].Output))
				if total > bound {
					return inf
				}
			}
		}
	case IncorrectTests:
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			for i, got := range e.EvalRange(c0, c1) {
				if got != cases[c0+i].Output {
					total++
				}
				if total > bound {
					return inf
				}
			}
		}
	case LogDiff:
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			for i, got := range e.EvalRange(c0, c1) {
				total += bits.LogDiff(got, cases[c0+i].Output)
				if total > bound {
					return inf
				}
			}
		}
	default:
		panic("cost: invalid kind")
	}
	return total
}

// OfPlan is OfState specialized to the compiled plan engine: the same
// block schedule, the same per-case summation order, and the same
// abort decisions, with two plan-only savings. The tape runs through
// direct calls (no interface dispatch), and the bound check runs once
// per block instead of once per case. The root column is read after
// each RunTape, because the engine's value cutoff decides during the
// pass whether the root's committed column still holds. Per-case
// costs are non-negative, so the partial sum is monotone: a sum that
// crosses bound mid-block has still crossed it at the block boundary,
// the same blocks get pulled either way, and the same +Inf comes back.
// Trajectories and eval-work stats are bit-identical to OfState on
// the same engine.
func (k Kind) OfPlan(e *plan.State, bound float64) float64 {
	cases := e.Suite().Cases
	n := len(cases)
	total := 0.0
	switch k {
	case Hamming:
		// Per-case distances are small integers, so accumulating them in
		// an int and converting once per block is exact (every partial
		// sum is far below 2^53) and bit-identical to the per-case
		// float adds of OfState — it just trades int→float conversions
		// and float adds for integer adds.
		d := 0
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			e.RunTape(c0, c1)
			root := e.ProposalRoot()[:n]
			for c := c0; c < c1; c++ {
				d += bits.Distance(root[c], cases[c].Output)
			}
			if total = float64(d); total > bound {
				return inf
			}
		}
	case IncorrectTests:
		d := 0
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			e.RunTape(c0, c1)
			root := e.ProposalRoot()[:n]
			for c := c0; c < c1; c++ {
				if root[c] != cases[c].Output {
					d++
				}
			}
			if total = float64(d); total > bound {
				return inf
			}
		}
	case LogDiff:
		for c0, c1 := 0, k.firstBlock(n, bound); c0 < n; c0, c1 = c1, n {
			e.RunTape(c0, c1)
			root := e.ProposalRoot()[:n]
			for c := c0; c < c1; c++ {
				total += bits.LogDiff(root[c], cases[c].Output)
			}
			if total > bound {
				return inf
			}
		}
	default:
		panic("cost: invalid kind")
	}
	return total
}

// Solves reports whether p produces the desired output on every case.
// It is equivalent to Of(...) == 0 for any Kind but short-circuits on
// the first failing case. vals is caller-provided scratch with length
// >= p.Len(), mirroring Of, so repeated calls perform no allocation.
func Solves(p *prog.Program, s *testcase.Suite, vals []uint64) bool {
	for i := range s.Cases {
		c := &s.Cases[i]
		if p.Eval(c.Inputs, vals) != c.Output {
			return false
		}
	}
	return true
}

// NormalizeBeta scales a user-facing β, which is expressed relative to
// a 100-test-case problem, to the problem's actual test-case count:
// β' = β·|tests|/100 (Section 3.2).
func NormalizeBeta(beta float64, numTests int) float64 {
	return beta * float64(numTests) / 100
}
