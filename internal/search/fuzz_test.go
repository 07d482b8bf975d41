package search

import (
	"math/rand/v2"
	"sync"
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// fuzzSuite builds a deterministic suite for the differential fuzz
// runs. One shape is an unsatisfiable random mapping (so searches run
// their whole budget and exercise long trajectories); three use small
// synthesizable references (so the solved path — early Step return,
// Solution capture — is exercised too); the last is the perfbench loop
// workload's hard 100-case shape, whose high costs keep the bound
// above the probe threshold, so proposals are evaluated in one pass
// over all cases.
func fuzzSuite(sel uint8, suiteSeed uint64) *testcase.Suite {
	rng := rand.New(rand.NewPCG(suiteSeed, 0xfeedface))
	switch sel % 5 {
	case 0: // random outputs: almost surely unsynthesizable
		out := rand.New(rand.NewPCG(suiteSeed, 0xabcdef))
		return testcase.Generate(func(in []uint64) uint64 { return out.Uint64() }, 2, 37, rng)
	case 1:
		ref := prog.MustParse("andq(x, subq(x, 1))", 1)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 1, 50, rng)
	case 2:
		ref := prog.MustParse("orq(x, y)", 2)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 2, 21, rng)
	case 3:
		ref := prog.MustParse("mulq(mulq(x, x), addq(x, y))", 2)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 2, 50, rng)
	default:
		ref := prog.MustParse("subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))", 1)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 1, 100, rng)
	}
}

// FuzzIncrementalEval is the differential test pinning all three
// evaluation arms to one another in three-way lockstep: the compiled
// plan engine (the default), the interpreted incremental engine
// (InterpEval), and the legacy copy-based path (LegacyEval) run with
// identical options and must agree bit-for-bit at every Step
// boundary: identical iteration counts, identical costs (float
// bit-equality, including logdiff sums), identical accept/reject
// tallies, identical current programs, and identical solutions.
//
// make ci replays the seeded corpus below; `go test -fuzz
// FuzzIncrementalEval ./internal/search` explores beyond it.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(0), false)
	f.Add(uint64(2), uint64(11), uint8(1), uint8(1), true)
	f.Add(uint64(3), uint64(13), uint8(2), uint8(2), false)
	f.Add(uint64(4), uint64(17), uint8(3), uint8(0), true)
	f.Add(uint64(5), uint64(19), uint8(0), uint8(2), false)
	f.Add(uint64(6), uint64(23), uint8(2), uint8(1), false)
	f.Add(uint64(7), uint64(29), uint8(4), uint8(0), false)
	f.Add(uint64(8), uint64(31), uint8(9), uint8(2), true)
	// Plateau walks that reach the plan engine's value cutoff under
	// every cost kind: the 100-case shape in the model dialect with
	// β=1 (Hamming, LogDiff), and in the full dialect with
	// IncorrectTests.
	f.Add(uint64(9), uint64(37), uint8(9), uint8(0), false)
	f.Add(uint64(10), uint64(41), uint8(9), uint8(2), false)
	f.Add(uint64(11), uint64(43), uint8(4), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed, suiteSeed uint64, sel, kindSel uint8, greedy bool) {
		suite := fuzzSuite(sel, suiteSeed)
		kind := cost.Kinds[int(kindSel)%len(cost.Kinds)]
		beta := 1.0
		if greedy {
			beta = 0
		}
		// The model dialect (with the redundancy move) rides on sel so
		// every suite shape sees both dialects across the corpus.
		set, redundancy := prog.FullSet, false
		if sel%2 == 1 {
			set, redundancy = prog.ModelSet, true
		}
		opts := Options{Set: set, Cost: kind, Beta: beta, Redundancy: redundancy, Seed: seed}
		iopts := opts
		iopts.InterpEval = true
		lopts := opts
		lopts.LegacyEval = true

		arms := []struct {
			name string
			run  *Run
		}{
			{"plan", New(suite, opts)},
			{"engine", New(suite, iopts)},
			{"legacy", New(suite, lopts)},
		}
		plan, rest := arms[0], arms[1:]
		for _, o := range rest {
			if plan.run.Cost() != o.run.Cost() {
				t.Fatalf("initial cost: %s %v, %s %v",
					plan.name, plan.run.Cost(), o.name, o.run.Cost())
			}
		}
		// Uneven chunk sizes exercise Step boundaries at varying phases.
		for _, chunk := range []int64{1, 137, 1000, 7, 2048, 911} {
			usedP, doneP := plan.run.Step(chunk)
			for _, o := range rest {
				usedO, doneO := o.run.Step(chunk)
				if usedP != usedO || doneP != doneO {
					t.Fatalf("step(%d): %s (%d, %v), %s (%d, %v)",
						chunk, plan.name, usedP, doneP, o.name, usedO, doneO)
				}
				if plan.run.Cost() != o.run.Cost() {
					t.Fatalf("cost diverged after step(%d): %s %v, %s %v",
						chunk, plan.name, plan.run.Cost(), o.name, o.run.Cost())
				}
				if !plan.run.Program().Equal(o.run.Program()) {
					t.Fatalf("programs diverged after step(%d):\n%s: %s\n%s: %s",
						chunk, plan.name, plan.run.Program(), o.name, o.run.Program())
				}
				if plan.run.MoveStats() != o.run.MoveStats() {
					t.Fatalf("move stats diverged after step(%d): %s %+v, %s %+v",
						chunk, plan.name, plan.run.MoveStats(), o.name, o.run.MoveStats())
				}
			}
			if doneP {
				for _, o := range rest {
					if plan.run.Solution() == nil || o.run.Solution() == nil ||
						!plan.run.Solution().Equal(o.run.Solution()) {
						t.Fatalf("solutions diverged: %s %v, %s %v",
							plan.name, plan.run.Solution(), o.name, o.run.Solution())
					}
				}
				break
			}
		}
		// Both engines must have done identical incremental work — the
		// plan layer changes how columns are computed, never which ones.
		if ps, es := plan.run.EvalStats(), arms[1].run.EvalStats(); ps != es {
			t.Fatalf("eval stats diverged: plan %+v, engine %+v", ps, es)
		}
		if st := plan.run.EvalStats(); st.NodesTotal > 0 && st.NodesReevaluated > st.NodesTotal {
			t.Fatalf("impossible reuse stats: %+v", st)
		}
		// The engines' committed columns must describe the final
		// program exactly: compare against a fresh legacy evaluation of
		// the same program.
		var vals [prog.MaxNodes]uint64
		finalLegacy := kind.Of(plan.run.Program(), suite, vals[:])
		if finalLegacy != plan.run.Cost() && !plan.run.minimize {
			t.Fatalf("plan cost %v disagrees with fresh evaluation %v", plan.run.Cost(), finalLegacy)
		}
	})
}

// TestConcurrentRunsSharedSuite steps independent engine-backed runs
// over one shared suite from many goroutines. Each Run owns its
// EvalState, journal, and mutator; the suite and OpSet are the only
// shared (read-only) data. Run under -race in make ci, this pins the
// engine's "one run, one engine" ownership story.
func TestConcurrentRunsSharedSuite(t *testing.T) {
	suite := suiteFor(t, "mulq(mulq(x, x), addq(x, y))", 2, 50)
	const workers = 8
	costs := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: uint64(w)})
			r.Step(20_000)
			costs[w] = r.Cost()
		}(i)
	}
	wg.Wait()
	// Determinism across the concurrent execution: re-run one of the
	// seeds sequentially and compare.
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 3})
	r.Step(20_000)
	if r.Cost() != costs[3] {
		t.Errorf("concurrent run diverged from sequential replay: %v vs %v", costs[3], r.Cost())
	}
}
