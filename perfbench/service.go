package main

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
	"stochsyn/internal/sygus"
)

// serviceBudget is the explicit iteration budget of every service job.
const serviceBudget = 300_000

// freshShare is the share of the stream that are fresh specs; the rest
// split evenly into exact and reordered repeats. Above one half, so the
// median job is a miss.
const freshShare = 0.6

// serviceClients is the number of closed-loop clients.
const serviceClients = 2

// svcItem is one job of the seeded service stream.
type svcItem struct {
	kind    string // "fresh", "repeat" or "reorder"
	name    string // the sygus problem
	origin  int    // index of the fresh item a repeat copies; itself for fresh items
	spec    server.JobSpec
	problem *stochsyn.Problem
}

// svcStream generates the seeded job stream on demand: fresh
// (problem, seed) specs drawn from the curated sygus problems,
// interleaved with exact repeats of earlier fresh specs and with
// repeats whose examples are reordered (the canonical cache key makes
// both hits). Items are made only as clients take them, so the stream
// holds no memory beyond the jobs actually sent.
type svcStream struct {
	probs  []*sygus.Problem
	rng    *rand.Rand
	budget int64
	items  []svcItem
	fresh  []int
}

func newStream(seed uint64, budget int64) *svcStream {
	return &svcStream{
		probs:  sygus.Standard(sygus.Options{Seed: seed}),
		rng:    rand.New(rand.NewPCG(seed, 0x5e41ce)),
		budget: budget,
	}
}

// next appends the next item and returns its index.
func (st *svcStream) next() int {
	i := len(st.items)
	rng := st.rng
	u := rng.Float64()
	if len(st.fresh) == 0 || u < freshShare {
		p := st.probs[rng.IntN(len(st.probs))]
		ex := make([]server.Example, len(p.Suite.Cases))
		cases := make([]stochsyn.Case, len(p.Suite.Cases))
		for c, tc := range p.Suite.Cases {
			ex[c] = server.Example{Inputs: tc.Inputs, Output: tc.Output}
			cases[c] = stochsyn.Case{Inputs: tc.Inputs, Output: tc.Output}
		}
		pub, err := stochsyn.NewProblem(p.Suite.NumInputs, cases)
		if err != nil {
			panic(err)
		}
		st.items = append(st.items, svcItem{
			kind:   "fresh",
			name:   p.Name,
			origin: i,
			spec: server.JobSpec{
				Problem: server.ProblemSpec{Examples: ex},
				Options: server.OptionsSpec{Budget: st.budget, Seed: rng.Uint64()>>1 | 1},
			},
			problem: pub,
		})
		st.fresh = append(st.fresh, i)
		return i
	}
	orig := st.items[st.fresh[rng.IntN(len(st.fresh))]]
	it := svcItem{kind: "repeat", name: orig.name, origin: orig.origin, spec: orig.spec, problem: orig.problem}
	if u >= (1+freshShare)/2 {
		it.kind = "reorder"
		ex := append([]server.Example(nil), orig.spec.Problem.Examples...)
		rng.Shuffle(len(ex), func(a, b int) { ex[a], ex[b] = ex[b], ex[a] })
		it.spec.Problem = server.ProblemSpec{Examples: ex}
	}
	st.items = append(st.items, it)
	return i
}

// svcJob is one job as the client saw it.
type svcJob struct {
	item    int
	submit  float64 // POST round trip, s
	latency float64 // POST until the client observed the terminal state, s
	view    *server.JobView
	err     error
}

// synthd is an in-process synthd with default config behind httptest.
type synthd struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

func startSynthd() *synthd {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	return &synthd{srv: srv, ts: ts, cl: client.New(ts.URL)}
}

func (d *synthd) close() {
	d.ts.Close()
	d.srv.Close()
}

// runService is the service workload: two closed-loop clients feed the
// seeded job stream to an in-process synthd until the measured time is
// up.
func runService(o options) *result {
	res := newResult()
	budget := int64(serviceBudget)
	if o.tiny {
		budget /= 10
	}
	setup, _ := timeSetup(func() *svcStream {
		d := startSynthd()
		defer d.close()
		if err := d.cl.Health(context.Background()); err != nil {
			panic(err)
		}
		st := newStream(o.seed, budget)
		st.next()
		return st
	})
	stream := newStream(o.seed, budget)
	maxJobs := math.MaxInt
	if o.tiny {
		maxJobs = 12
	}
	res.e2e["setup_s"] = metric{setup, "s"}

	d := startSynthd()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var mu sync.Mutex // guards stream and jobs
	var jobs []svcJob
	ctx := context.Background()
	rss := sampleRSS()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		var buf *spanBuf
		if tr != nil {
			buf = tr.buffer()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []svcJob
			for {
				mu.Lock()
				if len(stream.items) >= maxJobs || (!o.tiny && time.Since(start).Seconds() >= o.seconds) {
					mu.Unlock()
					break
				}
				i := stream.next()
				spec := stream.items[i].spec
				mu.Unlock()
				mine = append(mine, serviceJob(ctx, d.cl, i, spec, buf))
			}
			if buf != nil {
				buf.close()
			}
			mu.Lock()
			jobs = append(jobs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	rssP50, rssPeak := rss.Stop()
	d.close()

	serviceCheck(res, stream.items, jobs, o)
	serviceMetrics(res, stream.items, jobs, window, rssP50, rssPeak)
	if o.trace {
		spanReport(res, o, tr)
		res.withhold("the service workload's searches run inside synthd, where the benchmark wraps only the client calls",
			"mutate.apply_ns", "mutate.valid_ratio", "plan.begin_ns", "plan.commit_ns", "plan.abort_ns",
			"plan.node_reuse_ratio", "plan.reset_us", "plan.recipe_hit_ratio", "cost.ofplan_ns",
			"cost.case_skip_ratio", "cost.accept_ratio", "prog.rollback_ns", "search.new_us",
			"search.step_ns_per_iter", "search.iters_per_search", "restart.sched_ratio",
			"restart.searches_per_solve", "restart.useful_ratio", "restart.busy_ratio", "stochsyn.audit_ms")
		res.withhold("spans wrap only client calls; synthd's own path runs uninstrumented in both modes, so there is no traced iteration rate to compare",
			"trace.overhead_ratio")
	}
	return res
}

// serviceJob submits one job and follows it to its terminal state.
// With a buffer, each client call is a span under a service.job span.
func serviceJob(ctx context.Context, cl *client.Client, i int, spec server.JobSpec, buf *spanBuf) svcJob {
	var job, s0 int64
	if buf != nil {
		job = buf.newID()
		s0 = buf.now()
	}
	j := svcJob{item: i}
	t0 := time.Now()
	var c0 int64
	if buf != nil {
		c0 = buf.now()
	}
	v, err := cl.Submit(ctx, spec)
	j.submit = time.Since(t0).Seconds()
	if buf != nil {
		buf.leaf(job, "client.submit", c0, buf.now())
	}
	if err != nil {
		j.err = err
		j.latency = time.Since(t0).Seconds()
		return j
	}
	if !v.Status.Terminal() {
		if buf != nil {
			c0 = buf.now()
		}
		err = cl.Events(ctx, v.ID, 0, func(ev obs.Event) error {
			if ev.Name == "job_finished" {
				return client.StopStreaming
			}
			return nil
		})
		j.latency = time.Since(t0).Seconds()
		if buf != nil {
			buf.leaf(job, "client.events", c0, buf.now())
			c0 = buf.now()
		}
		if err == nil {
			v, err = cl.Job(ctx, v.ID)
		}
		if buf != nil {
			buf.leaf(job, "client.job", c0, buf.now())
		}
	} else {
		j.latency = j.submit
	}
	if buf != nil {
		buf.add(job, 0, "service.job", s0, buf.now())
	}
	j.view, j.err = v, err
	return j
}

// serviceCheck verifies every job: terminal and completed, a program
// that matches the examples, the same fingerprint as the fresh job it
// repeats, and — for the first fresh jobs — the same fingerprint as
// the library run of the same spec.
func serviceCheck(res *result, items []svcItem, jobs []svcJob, o options) {
	fps := map[int]fingerprint{}
	for _, j := range jobs {
		res.attempted++
		it := items[j.item]
		if j.err != nil {
			res.fail("job %d (%s): %v", j.item, it.kind, j.err)
			continue
		}
		v := j.view
		if v.Status != server.StatusCompleted || v.Result == nil {
			res.fail("job %d (%s): status %s %s", j.item, it.kind, v.Status, v.Error)
			continue
		}
		fp, err := viewFingerprint(v.Result)
		if err != nil {
			res.fail("job %d: %v", j.item, err)
			continue
		}
		msg, rt := verify(it.problem, fp.Solved, fp.Program, v.Result.Canonical)
		if msg != "" {
			res.fail("job %d (%s): %s", j.item, it.kind, msg)
		}
		if rt {
			res.roundtrip++
		}
		if it.kind == "fresh" {
			fps[j.item] = fp
		}
	}
	for _, j := range jobs {
		it := items[j.item]
		if it.kind == "fresh" || j.err != nil || j.view.Result == nil {
			continue
		}
		want, ok := fps[it.origin]
		if !ok {
			continue // the original was not reached before the window closed
		}
		if got, _ := viewFingerprint(j.view.Result); got != want {
			res.fail("job %d (%s of %d): fingerprint %+v differs from the original's %+v", j.item, it.kind, it.origin, got, want)
		}
	}
	lib := 8
	if o.tiny {
		lib = 2
	}
	checked := 0
	for i := 0; i < len(items) && checked < lib; i++ {
		want, ok := fps[i]
		if !ok {
			continue
		}
		it := items[i]
		r, err := stochsyn.Synthesize(it.problem, stochsyn.Options{Budget: it.spec.Options.Budget, Seed: it.spec.Options.Seed})
		res.attempted++
		checked++
		if err != nil {
			res.fail("job %d library run: %v", i, err)
			continue
		}
		if got := fingerprintOf(r); got != want {
			res.fail("job %d: synthd fingerprint %+v differs from the library's %+v", i, want, got)
		}
	}
	res.note("checked %d jobs (status, program re-verified, repeats against originals) and %d synthd-vs-library fingerprints", len(jobs), checked)
}

func viewFingerprint(r *server.ResultView) (fingerprint, error) {
	var h uint64
	if r.CanonicalHash != "" {
		var err error
		if h, err = strconv.ParseUint(r.CanonicalHash, 16, 64); err != nil {
			return fingerprint{}, errors.New("bad canonical_hash " + r.CanonicalHash)
		}
	}
	return fingerprint{r.Solved, r.Program, r.Iterations, r.Searches, h}, nil
}

// serviceMetrics fills the end-to-end and server-layer metrics of the
// service workload.
func serviceMetrics(res *result, items []svcItem, jobs []svcJob, window, rssP50, rssPeak float64) {
	var lat, hitLat, submit, queue, run, over []float64
	perIters, perLat := map[string]float64{}, map[string]float64{}
	hits, solved, done := 0, 0, 0
	for _, j := range jobs {
		lat = append(lat, j.latency*1000)
		submit = append(submit, j.submit*1000)
		if j.err != nil || j.view == nil || j.view.Result == nil {
			continue
		}
		v := j.view
		done++
		if v.Result.Solved {
			solved++
		}
		if v.Cached || v.Deduped {
			hits++
			if v.Cached {
				hitLat = append(hitLat, j.latency*1000)
			}
			continue
		}
		name := items[j.item].name
		perIters[name] += float64(v.Result.Iterations)
		perLat[name] += j.latency
		if v.StartedAt != nil && v.FinishedAt != nil {
			queue = append(queue, v.StartedAt.Sub(v.CreatedAt).Seconds()*1000)
			run = append(run, v.FinishedAt.Sub(*v.StartedAt).Seconds()*1000)
		}
		over = append(over, j.latency*1000-v.Result.DurationMS)
	}
	sr := ratio{float64(solved), float64(done)}
	hr := ratio{float64(hits), float64(done)}
	fr := ratio{float64(res.failed), float64(res.attempted)}
	lt := tailOf(lat)
	// As in the library workloads, throughput is taken per problem
	// (iterations over client-observed latency of the jobs that ran a
	// search) and averaged geometrically.
	var rates []float64
	for name, it := range perIters {
		if it > 0 {
			rates = append(rates, it/perLat[name])
		}
	}
	res.e2e["iters_per_s"] = metric{geomean(rates), "1/s"}
	res.note("iters_per_s: geometric mean over %d problems of iterations over POST-to-terminal latency of searched jobs", len(rates))
	res.e2e["solve_ratio"] = metric{sr.Value(), "ratio"}
	res.e2e["jobs_per_s"] = metric{float64(len(jobs)) / window, "1/s"}
	res.e2e["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
	res.e2e["latency_tail_ms"] = metric{lt.Value, "ms"}
	res.e2e["hit_latency_p50_ms"] = metric{percentile(hitLat, 50), "ms"}
	res.e2e["fail_ratio"] = metric{fr.Value(), "ratio"}
	res.e2e["rss_mb"] = metric{rssP50, "MB"}
	res.e2e["peak_rss_mb"] = metric{rssPeak, "MB"}
	res.note("jobs=%d in %.2fs window with %d closed-loop clients; budget %d iterations per job", len(jobs), window, serviceClients, serviceBudget)
	res.note("solve_ratio: %v", sr)
	res.note("latency_tail_ms: %v", lt)
	res.note("hit_latency_p50_ms: median over %d cache hits", len(hitLat))
	res.note("fail_ratio: %v", fr)

	res.layer("server.submit_ms", median(submit), "ms")
	res.layer("server.queue_ms", median(queue), "ms")
	res.layer("server.run_ms", median(run), "ms")
	res.layer("server.overhead_ms", median(over), "ms")
	res.layer("server.cache_hit_ratio", hr.Value(), "ratio")
	res.note("server.*_ms: medians over %d submits and %d searched jobs; server.cache_hit_ratio (cached or deduped): %v", len(submit), len(run), hr)
}
