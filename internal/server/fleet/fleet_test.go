package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
	"stochsyn/internal/server/fleet"
)

func easySpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{Expr: "xorq(x, y)", Inputs: 2, NumCases: 40, CaseSeed: 11},
		Options: server.OptionsSpec{Budget: 2_000_000, Seed: seed, Workers: 2},
	}
}

func hardSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{
			Expr:   "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))",
			Inputs: 1, NumCases: 50, CaseSeed: 3,
		},
		Options: server.OptionsSpec{Budget: server.MaxBudget, Seed: seed},
	}
}

func slowSpec(seed uint64) server.JobSpec {
	s := hardSpec(seed)
	s.Options.Budget = 1_500_000
	return s
}

// worker bundles one worker synthd and its HTTP front.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
}

func newWorker(t *testing.T, cfg server.Config) *worker {
	t.Helper()
	srv := server.New(cfg)
	return &worker{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// stop tears the worker down hard: HTTP first, then an already-
// expired drain so running jobs are cancelled, not awaited. Open
// client connections (e.g. a relay's SSE stream) are severed first —
// ts.Close would otherwise block on them, which is exactly the
// opposite of the worker-crash this simulates.
func (w *worker) stop() {
	w.ts.CloseClientConnections()
	w.ts.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	_ = w.srv.Shutdown(ctx)
}

func newFleet(t *testing.T, workers ...*worker) (*fleet.Coordinator, *httptest.Server, *client.Client) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	co, err := fleet.New(fleet.Config{Workers: urls, HealthInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	c := client.New(ts.URL)
	c.HTTPClient = ts.Client()
	return co, ts, c
}

func waitRunning(t *testing.T, c *client.Client, id string) *server.JobView {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if v.Status == server.StatusRunning {
			return v
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s terminal while waiting for running: %+v", id, v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not start running", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetDeterminism is the ISSUE's acceptance e2e: a job submitted
// through the coordinator returns a bit-identical Result (program,
// iterations, searches, seed) to the same spec run against a single
// local synthd — the schedule-deterministic tree executor makes
// placement invisible.
func TestFleetDeterminism(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	local := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer local.stop()
	lc := client.New(local.ts.URL)

	seeds := []uint64{1, 2, 3, 4}
	fleetViews := make([]*server.JobView, len(seeds))
	for i, seed := range seeds {
		v, err := c.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatalf("fleet submit seed %d: %v", seed, err)
		}
		fleetViews[i] = v
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	for i := range fleetViews {
		v, err := c.Wait(wctx, fleetViews[i].ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		fleetViews[i] = v
	}

	for i, seed := range seeds {
		lv, err := lc.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatalf("local submit seed %d: %v", seed, err)
		}
		lv, err = lc.Wait(wctx, lv.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		fv := fleetViews[i]
		if fv.Status != server.StatusCompleted || lv.Status != server.StatusCompleted {
			t.Fatalf("seed %d: fleet %s / local %s", seed, fv.Status, lv.Status)
		}
		if fv.Worker == "" {
			t.Errorf("seed %d: fleet view missing worker attribution: %+v", seed, fv)
		}
		fr, lr := fv.Result, lv.Result
		if fr == nil || lr == nil {
			t.Fatalf("seed %d: missing result: fleet %+v local %+v", seed, fr, lr)
		}
		if fr.Program != lr.Program || fr.Iterations != lr.Iterations ||
			fr.Searches != lr.Searches || fr.Seed != lr.Seed || fr.Solved != lr.Solved {
			t.Errorf("seed %d: fleet result differs from local:\nfleet: %+v\nlocal: %+v", seed, fr, lr)
		}
	}

	st := co.Snapshot()
	var forwards int64
	for _, ws := range st.Workers {
		forwards += ws.Forwards
	}
	if forwards != int64(len(seeds)) || st.Submissions != len(seeds) {
		t.Errorf("fleet stats: %+v, want %d forwards/submissions", st, len(seeds))
	}
}

// TestFleetFailoverMidRun kills the worker a job is running on and
// expects the coordinator to re-dispatch it to the surviving shard
// under the same id — no hang, no lost job.
func TestFleetFailoverMidRun(t *testing.T) {
	ctx := context.Background()
	workers := []*worker{
		newWorker(t, server.Config{Workers: 1, WorkerBudget: 1}),
		newWorker(t, server.Config{Workers: 1, WorkerBudget: 1}),
	}
	co, ts, c := newFleet(t, workers[0], workers[1])
	defer ts.Close()
	defer co.Close()

	v, err := c.Submit(ctx, hardSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	v = waitRunning(t, c, v.ID)
	var dead, survivor *worker
	switch v.Worker {
	case "w0":
		dead, survivor = workers[0], workers[1]
	case "w1":
		dead, survivor = workers[1], workers[0]
	default:
		t.Fatalf("unattributed job: %+v", v)
	}
	deadName := v.Worker
	defer survivor.stop()
	dead.stop()

	// The next polls find the worker gone and re-dispatch; the job
	// keeps its coordinator id and ends up running on the survivor.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rv, err := c.Job(ctx, v.ID)
		if err == nil && rv.Worker != deadName && rv.Status == server.StatusRunning {
			v = rv
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not re-dispatched: last view %+v err %v", rv, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := co.Snapshot(); st.Redispatches != 1 {
		t.Errorf("redispatches = %d, want 1", st.Redispatches)
	}

	// The re-dispatched job is live: cancel it through the
	// coordinator and see it finish.
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	fv, err := c.Wait(wctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCancelled {
		t.Errorf("cancelled re-dispatched job: %+v", fv)
	}
}

// TestFleetSingleflightSharding checks the fleet-level dedup story:
// identical submissions shard to the same worker, whose singleflight
// joins them — one search for two coordinator clients.
func TestFleetSingleflightSharding(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 2})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 2})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	first, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	first = waitRunning(t, c, first.ID)
	second, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Fatalf("identical submissions sharded apart: %s vs %s", first.Worker, second.Worker)
	}

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	fv, err := c.Wait(wctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.Wait(wctx, second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Deduped {
		t.Errorf("second identical submission should be a singleflight follower: %+v", sv)
	}
	if fv.Result == nil || sv.Result == nil || fv.Result.Program != sv.Result.Program ||
		fv.Result.Iterations != sv.Result.Iterations {
		t.Errorf("deduped results differ:\n%+v\n%+v", fv.Result, sv.Result)
	}
	joins := w0.srv.Snapshot().Dedup.Joins + w1.srv.Snapshot().Dedup.Joins
	if joins != 1 {
		t.Errorf("worker dedup joins = %d, want 1", joins)
	}
}

// TestFleetBackpressure fills the only worker and expects the
// coordinator to answer 503 with a Retry-After hint rather than hang.
func TestFleetBackpressure(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1, QueueDepth: 1})
	defer w0.stop()
	co, ts, c := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	first, err := c.Submit(ctx, hardSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, first.ID)
	if _, err := c.Submit(ctx, hardSpec(2)); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(hardSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit through coordinator = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from coordinator missing Retry-After hint")
	}
	if st := co.Snapshot(); st.Backpressure != 1 {
		t.Errorf("backpressure counter = %d, want 1", st.Backpressure)
	}
}

// TestFleetBadSpec checks that invalid specs are rejected at the
// coordinator (400) without consuming a forward.
func TestFleetBadSpec(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer w0.stop()
	co, ts, c := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	_, err := c.Submit(ctx, server.JobSpec{Problem: server.ProblemSpec{Expr: "frobq(x)", Inputs: 1}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec through coordinator: %v, want 400", err)
	}
	var forwards int64
	for _, ws := range co.Snapshot().Workers {
		forwards += ws.Forwards
	}
	if forwards != 0 {
		t.Errorf("bad spec consumed %d forwards", forwards)
	}

	// Unknown ?status= filters are a 400 at the coordinator too.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("coordinator ?status=bogus = %d, want 400", resp.StatusCode)
	}
}

// TestFleetEqSatCacheHit checks that rewrite-equivalence caching works
// fleet-wide: expr submissions shard by EqSatCacheKey, so a reference
// expression rewrite-equivalent to an earlier one — over a different
// sampled example set — lands on the same worker, whose second-level
// cache index serves it born-completed.
func TestFleetEqSatCacheHit(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	spec := func(expr string, caseSeed uint64) server.JobSpec {
		return server.JobSpec{
			Problem: server.ProblemSpec{Expr: expr, Inputs: 1, NumCases: 40, CaseSeed: caseSeed},
			Options: server.OptionsSpec{Budget: 4_000_000, Seed: 2},
		}
	}

	first, err := c.Submit(ctx, spec("addq(addq(x, 1), 2)", 11))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	fv, err := c.Wait(wctx, first.ID, 0)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCompleted || fv.Result == nil || !fv.Result.Solved {
		t.Fatalf("first job: %+v", fv)
	}

	// The respelling samples a different suite (different case seed),
	// so only the rewrite-equivalence shard key can co-locate it.
	second, err := c.Submit(ctx, spec("addq(x, 3)", 12))
	if err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Fatalf("rewrite-equivalent submissions sharded apart: %s vs %s", first.Worker, second.Worker)
	}
	if second.Status != server.StatusCompleted || !second.Cached {
		t.Fatalf("rewrite-equivalent submission not served from the worker cache: %+v", second)
	}
	if second.Result == nil || !second.Result.Solved || second.Result.Program != fv.Result.Program {
		t.Errorf("eqsat hit result differs:\n%+v\n%+v", second.Result, fv.Result)
	}

	hits := w0.srv.Snapshot().Cache.EqSatHits + w1.srv.Snapshot().Cache.EqSatHits
	if hits != 1 {
		t.Errorf("worker eqsat cache hits = %d, want 1", hits)
	}
}

// TestOversizeSpecRefused posts a submission body over
// server.MaxSpecBytes to a worker and to a coordinator: both must
// answer 413 with a typed error body, without running or forwarding
// anything.
func TestOversizeSpecRefused(t *testing.T) {
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer w0.stop()
	co, ts, _ := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	// A well-formed spec whose expression alone is over the cap, so
	// only the size bound can refuse it.
	var body bytes.Buffer
	body.WriteString(`{"problem": {"inputs": 1, "expr": "`)
	body.Write(bytes.Repeat([]byte("notq("), server.MaxSpecBytes/5+1))
	body.WriteString(`x"}}`)
	for _, front := range []struct {
		name string
		url  string
		hc   *http.Client
	}{
		{"worker", w0.ts.URL, w0.ts.Client()},
		{"coordinator", ts.URL, ts.Client()},
	} {
		resp, err := front.hc.Post(front.url+"/v1/jobs", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", front.name, err)
		}
		var ae server.APIError
		derr := json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversize spec = %d, want 413", front.name, resp.StatusCode)
		}
		if derr != nil || ae.Error == "" {
			t.Errorf("%s: 413 without a typed error body (%v, %+v)", front.name, derr, ae)
		}
	}
	if st := w0.srv.Snapshot(); st.Submitted != 0 {
		t.Errorf("oversize specs reached the worker's queue: %+v", st)
	}
	for _, ws := range co.Snapshot().Workers {
		if ws.Forwards != 0 {
			t.Errorf("coordinator forwarded an oversize spec to %s", ws.Name)
		}
	}
}

// refuseHostileSpecs posts each spec to a worker and to a coordinator:
// both must answer 400 with a typed error body while validating the
// spec, so nothing is queued or forwarded.
func refuseHostileSpecs(t *testing.T, field string, specs []server.JobSpec) {
	t.Helper()
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer w0.stop()
	co, ts, _ := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, front := range []struct {
			name string
			url  string
			hc   *http.Client
		}{
			{"worker", w0.ts.URL, w0.ts.Client()},
			{"coordinator", ts.URL, ts.Client()},
		} {
			resp, err := front.hc.Post(front.url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", front.name, err)
			}
			var ae server.APIError
			derr := json.NewDecoder(resp.Body).Decode(&ae)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || derr != nil || ae.Error == "" {
				t.Fatalf("%s: %s in %s = %d (%v, %+v), want 400 with a typed error body",
					front.name, field, body, resp.StatusCode, derr, ae)
			}
		}
	}
	if st := w0.srv.Snapshot(); st.Submitted != 0 {
		t.Errorf("hostile specs reached the worker's queue: %+v", st)
	}
	for _, ws := range co.Snapshot().Workers {
		if ws.Forwards != 0 {
			t.Errorf("coordinator forwarded a hostile spec to %s", ws.Name)
		}
	}
}

// TestHostileNumCasesRefused posts expr specs whose num_cases lies
// outside [0, server.MaxCases]: they must be refused before the suite
// is sampled. The values just past the cap go first, so a missing cap
// fails the test on a small suite before the hostile one is ever
// posted.
func TestHostileNumCasesRefused(t *testing.T) {
	var specs []server.JobSpec
	for _, n := range []int{-1, server.MaxCases + 1, 1 << 26} {
		specs = append(specs, server.JobSpec{
			Problem: server.ProblemSpec{Expr: "notq(x)", Inputs: 1, NumCases: n},
		})
	}
	refuseHostileSpecs(t, "num_cases", specs)
}

// TestHostileBudgetRefused posts specs whose options.budget is above
// server.MaxBudget: they must be refused before the job is queued. The
// problem solves in a few iterations, so a missing cap fails the test
// with an accepted job instead of a long run.
func TestHostileBudgetRefused(t *testing.T) {
	var specs []server.JobSpec
	for _, b := range []int64{server.MaxBudget + 1, 1 << 62} {
		specs = append(specs, server.JobSpec{
			Problem: server.ProblemSpec{Expr: "notq(x)", Inputs: 1, NumCases: 10},
			Options: server.OptionsSpec{Budget: b},
		})
	}
	refuseHostileSpecs(t, "budget", specs)
}
