package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"stochsyn"
	"stochsyn/internal/restart"
	"stochsyn/internal/superopt"
	"stochsyn/internal/sygus"
	"stochsyn/internal/testcase"
)

// problem is one named synthesis problem of a library workload, in
// both the public form Synthesize takes and the search-suite form the
// traced replicas take (same examples, same order).
type problem struct {
	name  string
	pub   *stochsyn.Problem
	suite *testcase.Suite
}

// librarySuite describes a library workload: where its problems come
// from and how it runs them.
type librarySuite struct {
	name    string
	workers int   // Synthesize's Workers
	budget  int64 // per-job iteration budget
	build   func(seed uint64, tiny bool) ([]problem, error)
}

// sygusSuite: the 35 curated sygus problems (10 cases each) through the
// sequential adaptive tree.
var sygusSuite = librarySuite{
	name:    "sygus",
	workers: 1,
	budget:  1_000_000,
	build: func(seed uint64, tiny bool) ([]problem, error) {
		var out []problem
		for _, p := range sygus.Standard(sygus.Options{Seed: seed}) {
			pp, err := newProblem(p.Name, p.Suite)
			if err != nil {
				return nil, err
			}
			out = append(out, pp)
		}
		if tiny {
			out = out[:3]
		}
		return out, nil
	},
}

// superoptSuite: scraped superoptimization problems through the
// concurrent tree executor at two workers. The problem set is the
// scraping pipeline's sample at a fixed pipeline seed, so every run
// weighs the same kernels; the workload seed draws each problem's 100
// cases from its reference translation, as sygus draws its cases.
var superoptSuite = librarySuite{
	name:    "superopt",
	workers: 2,
	budget:  1_000_000,
	build: func(seed uint64, tiny bool) ([]problem, error) {
		opts := superopt.DefaultOptions(superoptPipelineSeed)
		opts.SampleSize = 24
		if tiny {
			opts.SampleSize = 2
		}
		opts.CorpusFunctions = 60 + 8*opts.SampleSize
		probs, _, err := superopt.Build(opts)
		if err != nil {
			return nil, err
		}
		var out []problem
		for i, p := range probs {
			ref, err := stochsyn.ParseProgram(p.Reference.String(), p.Reference.NumInputs)
			if err != nil {
				return nil, fmt.Errorf("%s: reference: %w", p.Name, err)
			}
			pub, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 {
				v, _ := ref.Run(in...)
				return v
			}, p.Reference.NumInputs, superoptCases, mix(seed, 5, uint64(i)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			out = append(out, problem{name: p.Name, pub: pub, suite: suiteOf(pub)})
		}
		return out, nil
	},
}

// superoptPipelineSeed fixes the scraped problem sample; superoptCases
// is the number of cases drawn per problem.
const (
	superoptPipelineSeed = 1
	superoptCases        = 100
)

func newProblem(name string, s *testcase.Suite) (problem, error) {
	cases := make([]stochsyn.Case, len(s.Cases))
	for i, c := range s.Cases {
		cases[i] = stochsyn.Case{Inputs: c.Inputs, Output: c.Output}
	}
	pub, err := stochsyn.NewProblem(s.NumInputs, cases)
	if err != nil {
		return problem{}, fmt.Errorf("%s: %w", name, err)
	}
	return problem{name: name, pub: pub, suite: suiteOf(pub)}, nil
}

// fingerprint identifies a job's outcome. Two runs of the same job —
// repeats, Workers=1 vs 2, synthd vs the library — must agree on it.
type fingerprint struct {
	Solved     bool
	Program    string
	Iterations int64
	Searches   int
	Hash       uint64
}

func fingerprintOf(r stochsyn.Result) fingerprint {
	return fingerprint{r.Solved, r.Program, r.Iterations, r.Searches, r.CanonicalHash}
}

// verify re-checks a reported solution through the reference evaluator
// (ParseProgram + Program.Matches), independently of the engine that
// found it. It returns "" when the result is right. roundtrip reports
// that the Program text only parsed after bindLiterals (see there).
func verify(p *stochsyn.Problem, solved bool, program, canonical string) (msg string, roundtrip bool) {
	if !solved {
		return "", false
	}
	for i, src := range []string{program, canonical} {
		prg, err := stochsyn.ParseProgram(src, p.NumInputs())
		if err != nil && strings.Contains(err.Error(), "body nodes, limit is") {
			if prg, err = stochsyn.ParseProgram(bindLiterals(src), p.NumInputs()); err == nil && i == 0 {
				roundtrip = true
			}
		}
		if err != nil {
			return fmt.Sprintf("unparseable program %q: %v", src, err), roundtrip
		}
		if !prg.Matches(p) {
			return fmt.Sprintf("program %q does not match the examples", src), roundtrip
		}
	}
	return "", roundtrip
}

// bindLiterals rewrites a printed program so that each constant literal
// occurring more than once is bound to a name once and referenced by
// it. The printer writes every use of a shared constant node inline,
// while ParseProgram makes a fresh node per literal, so a program near
// the size limit can print to text that ParseProgram rejects as too
// large; the rewritten text denotes the same graph as the printed
// program and parses within the limit.
func bindLiterals(src string) string {
	type tok struct{ at, end int }
	var lits []tok
	count := map[string]int{}
	for i := 0; i < len(src); {
		j := i
		for j < len(src) && !strings.ContainsRune("(),;= ", rune(src[j])) {
			j++
		}
		if j > i {
			t := src[i:j]
			if _, err := strconv.ParseInt(t, 0, 64); err == nil || isUint(t) {
				lits = append(lits, tok{i, j})
				count[t]++
			}
			i = j
			continue
		}
		i++
	}
	names := map[string]string{}
	var head, body strings.Builder
	last := 0
	for _, l := range lits {
		t := src[l.at:l.end]
		if count[t] < 2 {
			continue
		}
		nm, ok := names[t]
		if !ok {
			nm = fmt.Sprintf("lit%d", len(names))
			names[t] = nm
			fmt.Fprintf(&head, "%s = %s; ", nm, t)
		}
		body.WriteString(src[last:l.at])
		body.WriteString(nm)
		last = l.end
	}
	body.WriteString(src[last:])
	return head.String() + body.String()
}

func isUint(t string) bool {
	_, err := strconv.ParseUint(t, 0, 64)
	return err == nil
}

// libJob is one finished Synthesize job.
type libJob struct {
	problem string
	wall    float64 // seconds around Synthesize
	res     stochsyn.Result
}

// maxRepeatChecks caps the first-stratum jobs a library run repeats
// after its measured window.
const maxRepeatChecks = 8

// runLibrary is the sygus or superopt workload: strata of one job per
// problem, each stratum with its own search seed, until the measured
// time is up. Traced, every job is followed by a replica run of the
// same job through restart.New("adaptive").RunContext with a wrapped
// factory, which must reproduce Synthesize's result.
func runLibrary(o options, ls librarySuite) *result {
	res := newResult()
	setup, probs := timeSetup(func() []problem {
		p, err := ls.build(o.seed, o.tiny)
		if err != nil {
			panic(err)
		}
		return p
	})
	res.e2e["setup_s"] = metric{setup, "s"}
	budget := ls.budget
	if o.tiny {
		budget /= 10
	}
	opts := func(seed uint64, workers int) stochsyn.Options {
		return stochsyn.Options{Budget: budget, Seed: seed, Workers: workers}
	}

	var tr *tracer
	var lt libTrace
	if o.trace {
		tr = newTracer()
		lt.workers = ls.workers
	}
	var jobs []libJob
	strata := 0
	var runIters, runSecs float64 // summed over Result.Duration, for the tracing overhead
	stratum0 := map[string]fingerprint{}
	// The first stratum always completes, so every problem is measured;
	// later ones stop as soon as the window closes.
	rss := sampleRSS()
	start := time.Now()
window:
	for k := 0; k == 0 || time.Since(start).Seconds() < o.seconds; k++ {
		seed := mix(o.seed, 3, uint64(k))
		strata++
		for _, p := range probs {
			if k > 0 && time.Since(start).Seconds() >= o.seconds {
				break window
			}
			t0 := time.Now()
			r, err := stochsyn.Synthesize(p.pub, opts(seed, ls.workers))
			w := time.Since(t0).Seconds()
			res.attempted++
			if err != nil {
				res.fail("%s seed %d: %v", p.name, seed, err)
				continue
			}
			msg, rt := verify(p.pub, r.Solved, r.Program, r.Canonical)
			if msg != "" {
				res.fail("%s seed %d: %s", p.name, seed, msg)
			}
			if rt {
				res.roundtrip++
			}
			jobs = append(jobs, libJob{problem: p.name, wall: w, res: r})
			runIters += float64(r.Iterations)
			runSecs += r.Duration.Seconds()
			if k == 0 {
				stratum0[p.name] = fingerprintOf(r)
			}
			if o.trace {
				lt.audit = append(lt.audit, w-r.Duration.Seconds())
				if msg := lt.run(tr, p, seed, budget, r); msg != "" && lt.diverged == "" {
					lt.diverged = msg
				}
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	rssP50, rssPeak := rss.Stop()

	// Repeat the first stratum: at Workers=1 for the concurrent
	// workload (which must match Workers=2 bit for bit), as-is for the
	// sequential one.
	checkWorkers := 1
	checked := probs
	if len(checked) > maxRepeatChecks {
		checked = checked[:maxRepeatChecks]
	}
	for _, p := range checked {
		seed := mix(o.seed, 3, 0)
		r, err := stochsyn.Synthesize(p.pub, opts(seed, checkWorkers))
		res.attempted++
		if err != nil {
			res.fail("%s repeat: %v", p.name, err)
			continue
		}
		if got, want := fingerprintOf(r), stratum0[p.name]; got != want {
			res.fail("%s seed %d: Workers=%d repeat %+v differs from Workers=%d run %+v", p.name, seed, checkWorkers, got, ls.workers, want)
		}
	}
	res.note("repeated %d jobs of the first stratum at Workers=%d against Workers=%d: fingerprints (solved, program, iterations, searches, canonical hash) compared", len(checked), checkWorkers, ls.workers)

	libMetrics(res, jobs, budget, rssP50, rssPeak)
	res.note("strata begun=%d of %d problems in %.2fs; budget %d iterations per job, Workers=%d", strata, len(probs), elapsed, budget, ls.workers)
	if o.trace {
		lt.report(res, o, tr, runIters/runSecs)
	}
	return res
}

// libMetrics fills the end-to-end metrics of a library workload.
func libMetrics(res *result, jobs []libJob, budget int64, rssP50, rssPeak float64) {
	var iters, walls, unsolvedWall []float64
	var solved []bool
	nSolved := 0
	perIters, perWall := map[string]float64{}, map[string]float64{}
	for _, j := range jobs {
		perIters[j.problem] += float64(j.res.Iterations)
		perWall[j.problem] += j.wall
		iters = append(iters, float64(j.res.Iterations))
		walls = append(walls, j.wall)
		solved = append(solved, j.res.Solved)
		if j.res.Solved {
			nSolved++
		} else {
			unsolvedWall = append(unsolvedWall, j.wall)
		}
	}
	sr := ratio{float64(nSolved), float64(len(jobs))}
	// Throughput is taken per problem and averaged geometrically, so
	// each problem weighs the same whatever its share of the iterations.
	var rates []float64
	for name, it := range perIters {
		if it > 0 {
			rates = append(rates, it/perWall[name])
		}
	}
	res.e2e["iters_per_s"] = metric{geomean(rates), "1/s"}
	res.note("iters_per_s: geometric mean over %d problems of iterations over Synthesize wall time", len(rates))
	res.e2e["solve_ratio"] = metric{sr.Value(), "ratio"}
	res.e2e["iters_pmean"] = metric{pmean(iters, solved, float64(budget)), "iters"}
	// The wall-clock cap of an unsolved job is the mean wall time of
	// the jobs that ran out of budget (unused when all solved).
	capWall := 0.0
	if len(unsolvedWall) > 0 {
		capWall = mean(unsolvedWall)
	}
	res.e2e["tts_pmean_s"] = metric{pmean(walls, solved, capWall), "s"}
	res.e2e["tts_p50_s"] = metric{percentile(walls, 50), "s"}
	tt := tailOf(walls)
	res.e2e["tts_tail_s"] = metric{tt.Value, "s"}
	res.e2e["jobs_per_s"] = metric{float64(len(jobs)) / sum(walls), "1/s"}
	res.e2e["latency_p50_ms"] = metric{percentile(walls, 50) * 1000, "ms"}
	res.e2e["latency_tail_ms"] = metric{tt.Value * 1000, "ms"}
	fr := ratio{float64(res.failed), float64(res.attempted)}
	res.e2e["fail_ratio"] = metric{fr.Value(), "ratio"}
	res.e2e["rss_mb"] = metric{rssP50, "MB"}
	res.e2e["peak_rss_mb"] = metric{rssPeak, "MB"}
	res.note("solve_ratio: %v", sr)
	res.note("tts_tail_s: %v", tt)
	res.note("fail_ratio: %v", fr)
}

// libTrace accumulates a library workload's traced replica runs.
type libTrace struct {
	workers  int
	diverged string
	runs     []*phaseRun

	audit                 []float64 // Synthesize wall minus Result.Duration, s
	wall, outside, stepNs int64     // strategy wall, time outside every step/factory span, summed step time
	useful, stepped       int64
	searches, solved      int64
}

// run replays one job through restart.New("adaptive").RunContext with
// a factory of traced replicas and compares the outcome with
// Synthesize's. It returns a divergence message, or "".
func (lt *libTrace) run(tr *tracer, p problem, seed uint64, budget int64, want stochsyn.Result) string {
	strat, err := restart.New("adaptive")
	if err != nil {
		return err.Error()
	}
	if lt.workers > 1 {
		strat.(*restart.Tree).Workers = lt.workers
	}
	buf := tr.buffer()
	job := buf.newID()
	rs := &replicas{tr: tr, parent: job}
	t0 := buf.now()
	got := strat.RunContext(context.Background(), rs.factory(p.suite, seed), budget)
	t1 := buf.now()
	buf.add(job, 0, "restart.run", t0, t1)
	buf.close()

	var inner []span
	for _, r := range rs.made {
		inner = append(inner, r.buf.spans...)
		r.buf.close()
	}
	var stepNs int64
	for _, s := range inner {
		if s.Name == "search.step" {
			stepNs += s.Dur()
		}
	}
	var covered []span
	for _, s := range inner {
		if s.Parent == job {
			covered = append(covered, s)
		}
	}
	lt.wall += t1 - t0
	lt.outside += (t1 - t0) - coverage(covered)
	lt.stepNs += stepNs
	var stepped int64
	for _, r := range rs.made {
		stepped += r.stepped
	}
	lt.stepped += stepped
	lt.useful += got.Iterations
	lt.searches += int64(got.Searches)
	lt.runs = append(lt.runs, rs.made...)
	if got.Solved {
		lt.solved++
	}

	program := ""
	if w, ok := got.Winner.(*phaseRun); ok && got.Solved {
		program = w.sol.String()
	}
	if got.Solved != want.Solved || got.Iterations != want.Iterations || got.Searches != want.Searches || program != want.Program {
		return fmt.Sprintf("%s seed %d: replica run (solved=%v iterations=%d searches=%d program=%q) differs from Synthesize (solved=%v iterations=%d searches=%d program=%q)",
			p.name, seed, got.Solved, got.Iterations, got.Searches, program, want.Solved, want.Iterations, want.Searches, want.Program)
	}
	return ""
}

// report fills the per-layer metrics of a traced library run.
func (lt *libTrace) report(res *result, o options, tr *tracer, untracedRate float64) {
	st := spanReport(res, o, tr)
	if lt.diverged != "" {
		res.note("%s", lt.diverged)
		res.withhold("the replica runs did not reproduce Synthesize, so their timings do not describe the real run",
			"mutate.apply_ns", "mutate.valid_ratio", "plan.begin_ns", "plan.commit_ns", "plan.abort_ns",
			"plan.node_reuse_ratio", "plan.reset_us", "plan.recipe_hit_ratio", "cost.ofplan_ns",
			"cost.case_skip_ratio", "cost.accept_ratio", "prog.rollback_ns", "search.new_us",
			"search.step_ns_per_iter", "search.iters_per_search", "restart.sched_ratio",
			"restart.searches_per_solve", "restart.useful_ratio", "restart.busy_ratio")
	} else {
		res.note("replica runs matched Synthesize on every traced job (solved, iterations, searches, program)")
		phaseLayers(res, st, lt.runs)
		sched := ratio{float64(lt.outside), float64(lt.wall)}
		res.layer("restart.sched_ratio", sched.Value(), "ratio")
		res.note("restart.sched_ratio: strategy wall ns outside every search.new/search.step span over strategy wall ns: %v", sched)
		if lt.solved > 0 {
			res.layer("restart.searches_per_solve", float64(lt.searches)/float64(lt.solved), "count")
			res.note("restart.searches_per_solve: %d searches over %d solves", lt.searches, lt.solved)
		} else {
			res.withhold("no traced job solved", "restart.searches_per_solve")
		}
		useful := ratio{float64(lt.useful), float64(lt.stepped)}
		res.layer("restart.useful_ratio", useful.Value(), "ratio")
		res.note("restart.useful_ratio: Result.Iterations over iterations stepped: %v", useful)
		busy := ratio{float64(lt.stepNs), float64(lt.wall) * float64(lt.workers)}
		res.layer("restart.busy_ratio", busy.Value(), "ratio")
		res.note("restart.busy_ratio: summed search.step ns over strategy wall ns x %d workers: %v", lt.workers, busy)
	}
	res.layer("stochsyn.audit_ms", median(lt.audit)*1000, "ms")
	res.note("stochsyn.audit_ms: median of Synthesize wall minus Result.Duration over %d jobs", len(lt.audit))
	// Both rates count strategy time only: Result.Duration untraced,
	// the RunContext span traced.
	overhead(res, untracedRate, float64(lt.useful)/(float64(lt.wall)/1e9))
	withholdServer(res)
}
