package stochsyn

import (
	"context"
	"reflect"
	"testing"
	"time"

	"stochsyn/internal/mutate"
)

// The oracle table below was captured from the library before context
// cancellation was plumbed through the strategies and the search inner
// loop. Synthesize and SynthesizeContext (under a background or live
// but never-cancelled context) must keep reproducing these counters
// and programs bit for bit: context support is required to be
// observationally free on the uncancelled path.

type oracleProblem struct {
	f        func([]uint64) uint64
	inputs   int
	probSeed uint64
}

type oracleEntry struct {
	name string
	prob oracleProblem
	opts Options

	wantSolved     bool
	wantIterations int64
	wantSearches   int
	wantProgram    string
}

func oracleTable() []oracleEntry {
	p1 := oracleProblem{func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 42}
	return []oracleEntry{
		{
			name: "p1-adaptive", prob: p1,
			opts:       Options{Budget: 2_000_000, Seed: 7},
			wantSolved: true, wantIterations: 27576, wantSearches: 15,
			wantProgram: "subq(x, andq(idivq(x, sarq(bswapq(0xfffffffffffff7ff), 0xfffffffffffff7ff)), x))",
		},
		{
			name: "p1-luby", prob: p1,
			opts:       Options{Budget: 2_000_000, Seed: 7, Strategy: "luby"},
			wantSolved: true, wantIterations: 58484, wantSearches: 30,
			wantProgram: "a = negq(x); b = andq(a, x); shrq(subq(x, b), mull(shrq(b, 0xe4c3495111dc002e), ultq(a, 1)))",
		},
		{
			name:       "p1-naive",
			prob:       oracleProblem{func(in []uint64) uint64 { return in[0] | (in[0] + 1) }, 1, 42},
			opts:       Options{Budget: 2_000_000, Seed: 3, Strategy: "naive"},
			wantSolved: true, wantIterations: 4560, wantSearches: 1,
			wantProgram: "orq(addq(sextbq(negl(0x1fffffffffffffff)), x), x)",
		},
		{
			name:       "p2-adaptive-w4",
			prob:       oracleProblem{func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 11},
			opts:       Options{Budget: 2_000_000, Seed: 5, Workers: 4},
			wantSolved: true, wantIterations: 328, wantSearches: 1,
			wantProgram: "xorq(x, y)",
		},
		{
			name:       "p1-fixed",
			prob:       oracleProblem{func(in []uint64) uint64 { return in[0] &^ (in[0] >> 1) }, 1, 9},
			opts:       Options{Budget: 2_000_000, Seed: 13, Strategy: "fixed:50000"},
			wantSolved: true, wantIterations: 61512, wantSearches: 2,
			wantProgram: "a = sextbq(0xffffffff); b = subq(0xffefffffffffffff, mull(a, a)); andq(rolq(subq(tzcntq(orl(x, subl(x, b))), x), bswapq(b)), x)",
		},
		{
			name:       "p1-innerouter",
			prob:       oracleProblem{func(in []uint64) uint64 { return ^in[0] >> 3 }, 1, 17},
			opts:       Options{Budget: 500_000, Seed: 21, Strategy: "innerouter:100:2"},
			wantSolved: true, wantIterations: 10920, wantSearches: 20,
			wantProgram: "a = iremq(0xffffffff00000000, -11); b = addl(rolq(0xffffffff00000000, zextlq(0xffffffbfffffffff)), a); c = orq(x, shrl(b, b)); rolq(xorq(c, orq(c, a)), subl(a, 0x3ffffffffff))",
		},
	}
}

func checkOracle(t *testing.T, label string, res Result, e oracleEntry) {
	t.Helper()
	if res.Cancelled {
		t.Errorf("%s: Cancelled = true on an uncancelled run", label)
	}
	if res.Solved != e.wantSolved || res.Iterations != e.wantIterations ||
		res.Searches != e.wantSearches || res.Program != e.wantProgram {
		t.Errorf("%s: got (solved=%v, iters=%d, searches=%d, prog=%q),\nwant (solved=%v, iters=%d, searches=%d, prog=%q)",
			label, res.Solved, res.Iterations, res.Searches, res.Program,
			e.wantSolved, e.wantIterations, e.wantSearches, e.wantProgram)
	}
}

func TestOracleBitIdentity(t *testing.T) {
	for _, e := range oracleTable() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			p, err := ProblemFromFunc(e.prob.f, e.prob.inputs, 50, e.prob.probSeed)
			if err != nil {
				t.Fatal(err)
			}

			res, err := Synthesize(p, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "Synthesize", res, e)
			if res.Seed != e.opts.Seed {
				t.Errorf("Result.Seed = %d, want %d", res.Seed, e.opts.Seed)
			}
			if res.Duration <= 0 {
				t.Errorf("Result.Duration = %v, want > 0", res.Duration)
			}

			// A live (cancellable) context switches the strategies to
			// chunked context-polling stepping; the result must not
			// change.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res2, err := SynthesizeContext(ctx, p, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "SynthesizeContext", res2, e)
		})
	}
}

// TestAnalysisDoesNotPerturbSearch pins the static-analysis layer's
// core contract: it never changes what the search does.
//
// Two properties combine to prove it. First, the oracle table above
// predates the analysis layer, and TestOracleBitIdentity still
// reproduces it bit for bit — so the post-search result audit
// (lint + canonicalization) cannot have touched a trajectory. Second,
// this test runs the same oracle entry with the mutate debug gate
// (analysis.Check after every accepted move) switched on and off: the
// two results must be identical in every field, because the gate only
// reads accepted programs and either passes or panics.
func TestAnalysisDoesNotPerturbSearch(t *testing.T) {
	e := oracleTable()[0] // p1-adaptive: sequential, no Exec stats
	p, err := ProblemFromFunc(e.prob.f, e.prob.inputs, 50, e.prob.probSeed)
	if err != nil {
		t.Fatal(err)
	}

	if mutate.DebugChecks() {
		t.Fatal("debug gate unexpectedly enabled at test start")
	}
	base, err := Synthesize(p, e.opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "bare", base, e)

	mutate.SetDebugChecks(true)
	defer mutate.SetDebugChecks(false)
	gated, err := Synthesize(p, e.opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "gated", gated, e)

	// Wall clock aside, the two runs must be indistinguishable —
	// including the audit outputs (Lint, Canonical, CanonicalHash).
	base.Duration, gated.Duration = 0, 0
	if !reflect.DeepEqual(base, gated) {
		t.Errorf("debug gate changed the result:\nbare:  %+v\ngated: %+v", base, gated)
	}
	if gated.CanonicalHash == 0 || gated.Canonical == "" {
		t.Errorf("solved result missing canonical audit: %+v", gated)
	}
}

// TestSynthesizeContextCancellation cancels a large-budget synthesis
// mid-run and checks it stops promptly with consistent partial
// counters and no error.
func TestSynthesizeContextCancellation(t *testing.T) {
	// A spec hard enough not to be solved within a few milliseconds.
	hard := func(in []uint64) uint64 {
		x := in[0]*0x9e3779b97f4a7c15 ^ in[1]>>9
		return x ^ x>>31 ^ in[1]*0xbf58476d1ce4e5b9
	}
	p, err := ProblemFromFunc(hard, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) (Result, error)
	}{
		{"sequential", func(ctx context.Context) (Result, error) {
			return SynthesizeContext(ctx, p, Options{Budget: 1 << 40})
		}},
		{"luby", func(ctx context.Context) (Result, error) {
			return SynthesizeContext(ctx, p, Options{Budget: 1 << 40, Strategy: "luby"})
		}},
		{"tree-workers", func(ctx context.Context) (Result, error) {
			return SynthesizeContext(ctx, p, Options{Budget: 1 << 40, Workers: 4})
		}},
		{"parallel-naive", func(ctx context.Context) (Result, error) {
			return SynthesizeParallelContext(ctx, p, Options{Budget: 1 << 40, Strategy: "naive"}, 4)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type out struct {
				res Result
				err error
			}
			done := make(chan out, 1)
			start := time.Now()
			go func() {
				res, err := tc.run(ctx)
				done <- out{res, err}
			}()
			time.Sleep(30 * time.Millisecond)
			cancel()
			var o out
			select {
			case o = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("synthesis did not return within 10s of cancellation")
			}
			if o.err != nil {
				t.Fatalf("cancelled synthesis returned error: %v", o.err)
			}
			res := o.res
			if res.Solved {
				t.Skip("solved before cancellation; nothing to assert")
			}
			if !res.Cancelled {
				t.Errorf("Cancelled = false after mid-run cancel: %+v", res)
			}
			if res.Iterations <= 0 || res.Iterations >= 1<<40 {
				t.Errorf("Iterations = %d, want partial progress below the budget", res.Iterations)
			}
			if res.Duration <= 0 || res.Duration > time.Since(start) {
				t.Errorf("Duration = %v, inconsistent with wall clock", res.Duration)
			}
		})
	}
}

// The rows below pin the trajectories that the plain oracle table does
// not reach: pruning, rewrite-equivalence dedup, and size minimization.
// Each consumer reads the proposal between the move and the accept
// decision — the pruner's abstract root value, the dedup memo's e-class
// hash, the optimizer's size term — so a change to what a proposal
// looks like (for example, dead nodes it leaves behind) shows here
// first. They were captured from the library before garbage collection
// moved from the moves to the accepting commit.

func knobOracleTable() []oracleEntry {
	p1 := oracleProblem{func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 42}
	p3 := oracleProblem{func(in []uint64) uint64 { return (in[0] & in[1]) | ((in[0] ^ in[1]) >> 1) }, 2, 5}
	return []oracleEntry{
		{
			name: "p1-adaptive-prune", prob: p1,
			opts:       Options{Budget: 2_000_000, Seed: 7, Prune: true},
			wantSolved: true, wantIterations: 1684, wantSearches: 2,
			wantProgram: "xorq(andq(x, negq(x)), x)",
		},
		{
			name: "p1-adaptive-eqsat", prob: p1,
			opts:       Options{Budget: 2_000_000, Seed: 7, EqSat: true},
			wantSolved: true, wantIterations: 26995, wantSearches: 15,
			wantProgram: "andq(subq(-2, notq(x)), x)",
		},
		{
			name: "p3-model-eqsat-prune", prob: p3,
			opts:       Options{Budget: 2_000_000, Seed: 9, Dialect: Model, EqSat: true, Prune: true},
			wantSolved: true, wantIterations: 781, wantSearches: 1,
			wantProgram: "or(and(x, y), shr(xor(y, x)))",
		},
	}
}

func TestOracleKnobs(t *testing.T) {
	for _, e := range knobOracleTable() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			p, err := ProblemFromFunc(e.prob.f, e.prob.inputs, 50, e.prob.probSeed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Synthesize(p, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "Synthesize", res, e)
		})
	}
}

type optimizeOracleEntry struct {
	name  string
	prob  oracleProblem
	start string
	opts  Options

	wantProgram    string
	wantSize       int
	wantIterations int64
}

func TestOracleOptimize(t *testing.T) {
	for _, e := range []optimizeOracleEntry{
		{
			name:        "full-shrink",
			prob:        oracleProblem{func(in []uint64) uint64 { return in[0] * 3 }, 1, 4},
			start:       "addq(addq(x, x), mulq(x, 1))",
			opts:        Options{Budget: 300, Seed: 3},
			wantProgram: "addq(addq(x, x), mulq(x, 1))", wantSize: 4, wantIterations: 300,
		},
		{
			name:        "full-shared",
			prob:        oracleProblem{func(in []uint64) uint64 { return (in[0] ^ in[1]) + (in[0] & in[1]) }, 2, 8},
			start:       "a = xorq(x, y); b = andq(y, x); addq(orq(a, a), andq(b, notq(0)))",
			opts:        Options{Budget: 1_500, Seed: 5},
			wantProgram: "orq(x, y)", wantSize: 1, wantIterations: 1500,
		},
		{
			name:        "model-redundancy",
			prob:        oracleProblem{func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 6},
			start:       "a = andq(x, notq(y)); b = andq(notq(x), y); orq(orq(a, b), andq(a, a))",
			opts:        Options{Budget: 1_500, Seed: 11, Dialect: Model},
			wantProgram: "xor(not(y), not(x))", wantSize: 3, wantIterations: 1500,
		},
	} {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			p, err := ProblemFromFunc(e.prob.f, e.prob.inputs, 50, e.prob.probSeed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Optimize(p, e.start, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Program != e.wantProgram || res.Size != e.wantSize || res.Iterations != e.wantIterations {
				t.Errorf("got (prog=%q, size=%d, iters=%d),\nwant (prog=%q, size=%d, iters=%d)",
					res.Program, res.Size, res.Iterations, e.wantProgram, e.wantSize, e.wantIterations)
			}
		})
	}
}
