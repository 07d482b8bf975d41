package main

import (
	"fmt"
	"math"
	"time"

	"stochsyn"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// loopSpecs are the loop workload's two hard specs: 100 sampled cases
// each, far beyond what a loop job's budget can solve, so every
// iteration is spent in the per-iteration layers.
var loopSpecs = []struct {
	expr   string
	inputs int
}{
	{"mulq(mulq(x, x), addq(x, y))", 2},
	{"subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))", 1},
}

const loopCases = 100

// loopScale is the per-job iteration budget and the minimum number of
// rounds of a loop run.
func loopScale(o options) (budget int64, minRounds int) {
	if o.tiny {
		return 2000, 2
	}
	return 50_000, 10
}

// loopState is a search.Run's observable end state: what the replica
// must reproduce and what repeats must agree on.
type loopState struct {
	Cost    float64
	Program string
	Iters   int64
	Eval    [4]int64 // EvalStats: nodes reevaluated, nodes total, cases evaluated, cases total
	Solved  bool
}

func (s loopState) String() string {
	return fmt.Sprintf("cost=%g iters=%d solved=%v eval=%v program=%s", s.Cost, s.Iters, s.Solved, s.Eval, s.Program)
}

// loopSuites builds the specs' suites, with cases drawn from seed.
func loopSuites(seed uint64) []*testcase.Suite {
	var out []*testcase.Suite
	for i, sp := range loopSpecs {
		ref, err := stochsyn.ParseProgram(sp.expr, sp.inputs)
		if err != nil {
			panic(err)
		}
		p, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 {
			v, _ := ref.Run(in...)
			return v
		}, sp.inputs, loopCases, mix(seed, 1, uint64(i)))
		if err != nil {
			panic(err)
		}
		out = append(out, suiteOf(p))
	}
	return out
}

// suiteOf copies a problem's examples into a search suite.
func suiteOf(p *stochsyn.Problem) *testcase.Suite {
	s := &testcase.Suite{NumInputs: p.NumInputs()}
	for _, c := range p.Cases() {
		s.Cases = append(s.Cases, testcase.Case{Inputs: c.Inputs, Output: c.Output})
	}
	return s
}

// loopRun runs one loop job through search.New and Run.Step.
func loopRun(suite *testcase.Suite, seed uint64, budget int64) (loopState, time.Duration) {
	t0 := time.Now()
	run := search.New(suite, search.Options{Beta: 1, Seed: seed})
	used, done := run.Step(budget)
	wall := time.Since(t0)
	es := run.EvalStats()
	st := loopState{
		Cost:    run.Cost(),
		Program: run.Program().String(),
		Iters:   used,
		Eval:    [4]int64{es.NodesReevaluated, es.NodesTotal, es.CasesEvaluated, es.CasesTotal},
		Solved:  done,
	}
	return st, wall
}

// replicaState is the same end state read from a replica.
func replicaState(r *phaseRun, used int64) loopState {
	es := r.eng.Stats()
	return loopState{
		Cost:    r.cost,
		Program: r.cur.String(),
		Iters:   used,
		Eval:    [4]int64{es.NodesReevaluated, es.NodesTotal, es.CasesEvaluated, es.CasesTotal},
		Solved:  r.done,
	}
}

// runLoop is the loop workload: rounds of one fixed-budget search per
// spec, single goroutine. Untraced, it reports throughput; traced, it
// alternates untraced rounds with replica rounds on the same seeds and
// reports the phase metrics.
func runLoop(o options) *result {
	res := newResult()
	budget, minRounds := loopScale(o)
	// Each round draws its own case sets, so a run averages over many
	// cost landscapes; round 0's are built by the timed set-up.
	roundSuites := func(round int) []*testcase.Suite { return loopSuites(mix(o.seed, 4, uint64(round))) }
	setup, suites0 := timeSetup(func() []*testcase.Suite {
		s := roundSuites(0)
		for _, suite := range s {
			search.New(suite, search.Options{Beta: 1, Seed: o.seed})
		}
		return s
	})
	res.e2e["setup_s"] = metric{setup, "s"}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var rates, traced, walls []float64
	var runs []*phaseRun
	first := map[int]loopState{}
	diverged := ""
	rss := sampleRSS()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < o.seconds; round++ {
		var its int64
		var wall time.Duration
		suites := suites0
		if round > 0 {
			suites = roundSuites(round)
		}
		for j, suite := range suites {
			seed := mix(o.seed, 2, uint64(round), uint64(j))
			st, w := loopRun(suite, seed, budget)
			res.attempted++
			its += st.Iters
			wall += w
			if round == 0 {
				first[j] = st
			}
			if !o.trace {
				continue
			}
			// Replica of the same job, timed phase by phase.
			buf := tr.buffer()
			rid := buf.newID()
			t0 := time.Now()
			r0 := buf.now()
			r := newPhaseRun(suite, seed, buf, rid)
			used, _ := r.Step(budget)
			buf.add(rid, 0, "loop.job", r0, buf.now())
			tw := time.Since(t0)
			buf.close()
			runs = append(runs, r)
			traced = append(traced, float64(used)/tw.Seconds())
			if got := replicaState(r, used); got != st && diverged == "" {
				diverged = fmt.Sprintf("replica diverged from search.Run on spec %d seed %d: replica %v, run %v", j, seed, got, st)
			}
		}
		rates = append(rates, float64(its)/wall.Seconds())
		walls = append(walls, wall.Seconds()*1000)
	}
	elapsed := time.Since(start).Seconds()
	rssP50, rssPeak := rss.Stop()

	// Repeats must reproduce the first round exactly.
	for j, suite := range suites0 {
		st, _ := loopRun(suite, mix(o.seed, 2, 0, uint64(j)), budget)
		res.attempted++
		if st != first[j] {
			res.fail("loop spec %d: repeat differs from the first run: %v vs %v", j, st, first[j])
		}
	}

	res.e2e["iters_per_s"] = metric{median(rates), "1/s"}
	res.e2e["jobs_per_s"] = metric{float64(len(rates)*len(loopSpecs)) / sum(walls) * 1000, "1/s"}
	res.e2e["latency_p50_ms"] = metric{percentile(walls, 50), "ms"}
	lt := tailOf(walls)
	res.e2e["latency_tail_ms"] = metric{lt.Value, "ms"}
	res.e2e["fail_ratio"] = metric{ratio{float64(res.failed), float64(res.attempted)}.Value(), "ratio"}
	res.e2e["rss_mb"] = metric{rssP50, "MB"}
	res.e2e["peak_rss_mb"] = metric{rssPeak, "MB"}
	res.note("rounds=%d (one %d-iteration search per spec each) in %.2fs; latency is per round", len(rates), budget, elapsed)
	res.note("iters_per_s: median of per-round rates (p25 %.0f, p75 %.0f)", percentile(rates, 25), percentile(rates, 75))
	res.note("latency_tail_ms: %v", lt)
	res.note("fail_ratio: %v", ratio{float64(res.failed), float64(res.attempted)})

	if o.trace {
		st := spanReport(res, o, tr)
		if diverged != "" {
			res.note("%s", diverged)
			res.withhold("the replica did not reproduce search.Run, so its phase timings do not describe the real loop",
				"mutate.apply_ns", "mutate.valid_ratio", "plan.begin_ns", "plan.commit_ns", "plan.abort_ns",
				"plan.node_reuse_ratio", "plan.reset_us", "plan.recipe_hit_ratio", "cost.ofplan_ns",
				"cost.case_skip_ratio", "cost.accept_ratio", "prog.rollback_ns", "search.new_us",
				"search.step_ns_per_iter", "search.iters_per_search")
		} else {
			res.note("replica matched search.Run on all %d traced jobs (cost, program, iterations, EvalStats)", len(runs))
			phaseLayers(res, st, runs)
		}
		overhead(res, median(rates), median(traced))
		res.withhold("loop drives single searches; no restart strategy runs",
			"restart.sched_ratio", "restart.searches_per_solve", "restart.useful_ratio", "restart.busy_ratio")
		res.withhold("loop does not call stochsyn.Synthesize", "stochsyn.audit_ms")
		withholdServer(res)
	}
	return res
}

// overhead reports the tracing overhead: the gap between the traced
// and untraced iteration rates.
func overhead(res *result, untraced, traced float64) {
	res.layer("trace.overhead_ratio", 1-traced/untraced, "ratio")
	res.note("trace.overhead_ratio: 1 - traced/untraced iters_per_s = 1 - %.0f/%.0f", traced, untraced)
}

// withholdServer withholds the server layer on library workloads.
func withholdServer(res *result) {
	res.withhold("only the service workload runs synthd",
		"server.submit_ms", "server.queue_ms", "server.run_ms", "server.overhead_ms", "server.cache_hit_ratio")
}

// phaseLayers fills the per-iteration and per-search metrics from the
// spans and counters of traced replicas.
func phaseLayers(res *result, st map[string]*spanStat, runs []*phaseRun) {
	var proposed, valid, evaluated, accepted, stepped int64
	var es [4]int64
	var hits, compiles int64
	for _, r := range runs {
		proposed += r.proposed
		valid += r.valid
		evaluated += r.evaluated
		accepted += r.accepted
		stepped += r.stepped
		e := r.eng.Stats()
		es[0] += e.NodesReevaluated
		es[1] += e.NodesTotal
		es[2] += e.CasesEvaluated
		es[3] += e.CasesTotal
		ps := r.eng.PlanStats()
		hits += ps.CacheHits
		compiles += ps.Compiles
	}
	spanLayer := func(metricName, spanName string, scale float64) {
		v := spanMean(st, spanName)
		if math.IsNaN(v) {
			res.withhold("no "+spanName+" span was sampled", metricName)
			return
		}
		res.layer(metricName, v/scale, layerUnit(metricName))
		res.note("%s: mean of %d sampled %s spans", metricName, st[spanName].Count, spanName)
	}
	ratioLayer := func(name string, r ratio) {
		if r.Den == 0 {
			res.withhold("empty base", name)
			return
		}
		res.layer(name, r.Value(), "ratio")
		res.note("%s: %v", name, r)
	}
	spanLayer("mutate.apply_ns", "mutate.apply", 1)
	ratioLayer("mutate.valid_ratio", ratio{float64(valid), float64(proposed)})
	spanLayer("plan.begin_ns", "plan.begin", 1)
	spanLayer("plan.commit_ns", "plan.commit", 1)
	spanLayer("plan.abort_ns", "plan.abort", 1)
	ratioLayer("plan.node_reuse_ratio", ratio{float64(es[1] - es[0]), float64(es[1])})
	spanLayer("plan.reset_us", "plan.reset", 1000)
	ratioLayer("plan.recipe_hit_ratio", ratio{float64(hits), float64(hits + compiles)})
	spanLayer("cost.ofplan_ns", "cost.ofplan", 1)
	ratioLayer("cost.case_skip_ratio", ratio{float64(es[3] - es[2]), float64(es[3])})
	ratioLayer("cost.accept_ratio", ratio{float64(accepted), float64(evaluated)})
	spanLayer("prog.rollback_ns", "prog.rollback", 1)
	spanLayer("search.new_us", "search.new", 1000)
	if s := st["search.step"]; s != nil && stepped > 0 {
		res.layer("search.step_ns_per_iter", float64(s.Total)/float64(stepped), "ns")
		res.note("search.step_ns_per_iter: %d search.step spans over %d iterations", s.Count, stepped)
	} else {
		res.withhold("no search.step span", "search.step_ns_per_iter")
	}
	if len(runs) > 0 {
		res.layer("search.iters_per_search", float64(stepped)/float64(len(runs)), "iters")
		res.note("search.iters_per_search: %d iterations over %d searches", stepped, len(runs))
	}
}
