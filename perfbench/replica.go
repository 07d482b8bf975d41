package main

import (
	"math"
	"math/rand/v2"
	"sync"

	"stochsyn/internal/cost"
	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// sampleEvery is the iteration period at which a traced replica times
// the phases of one iteration. Iterations are chosen by number, never
// by outcome, so the sampled phase means are unbiased.
const sampleEvery = 256

// phaseRun replicates search.Run's default engine path (plan engine,
// Hamming cost, full dialect, no pruning, dedup or size minimization)
// from the layers' public entry points, so each phase of an iteration
// can be timed in a span. It draws from the random stream exactly as
// search.Run does; callers compare its final state against a real Run
// on the same seed and withhold the phase metrics if they diverge.
type phaseRun struct {
	kind  cost.Kind
	beta  float64
	rng   *rand.Rand
	mut   *mutate.Mutator
	eng   *plan.State
	cur   *prog.Program
	jr    prog.Journal
	cost  float64
	iters int64
	done  bool
	sol   *prog.Program

	proposed, valid, evaluated, accepted int64

	buf     *spanBuf
	parent  int64 // span the search's own spans hang under
	stepped int64 // iterations consumed across Step calls
}

// newPhaseRun mirrors search.New for a zero initial program, recorded
// as a search.new span (parented under parent) with a nested plan.reset
// span.
func newPhaseRun(suite *testcase.Suite, seed uint64, buf *spanBuf, parent int64) *phaseRun {
	id := buf.newID()
	t0 := buf.now()
	src := rand.NewPCG(seed, 0x5f3759df)
	r := &phaseRun{
		kind:   cost.Hamming,
		beta:   cost.NormalizeBeta(1, suite.Len()),
		rng:    rand.New(src),
		mut:    mutate.New(prog.FullSet, suite, false),
		cur:    prog.NewZero(suite.NumInputs),
		buf:    buf,
		parent: parent,
	}
	r.eng = plan.New(suite)
	r0 := buf.now()
	r.eng.Reset(r.cur)
	buf.leaf(id, "plan.reset", r0, buf.now())
	r.mut.BindEval(r.eng)
	var vals [prog.MaxNodes]uint64
	r.cost = r.kind.Of(r.cur, suite, vals[:])
	if r.cost == 0 {
		r.finish()
	}
	buf.add(id, parent, "search.new", t0, buf.now())
	return r
}

// replicas builds traced replica searches for one strategy run and
// remembers them, so their counters can be read after the strategy
// returns. The factory may be called from several executor goroutines.
type replicas struct {
	tr     *tracer
	parent int64

	mu   sync.Mutex
	made []*phaseRun
}

// factory mirrors search.NewFactory's per-search seed derivation.
func (rs *replicas) factory(suite *testcase.Suite, seed uint64) search.Factory {
	return func(id uint64) search.Search {
		r := newPhaseRun(suite, seed^(id+1)*0x9e3779b97f4a7c15, rs.tr.buffer(), rs.parent)
		rs.mu.Lock()
		rs.made = append(rs.made, r)
		rs.mu.Unlock()
		return r
	}
}

var _ search.Search = (*phaseRun)(nil)

// Step implements search.Search. The call is a search.step span, and
// every sampleEvery-th iteration a search.iter span with one child span
// per phase.
func (r *phaseRun) Step(budget int64) (int64, bool) {
	if r.done || budget <= 0 {
		return 0, r.done
	}
	id := r.buf.newID()
	t0 := r.buf.now()
	var used int64
	solved := false
	for used < budget {
		used++
		r.iters++
		var b *spanBuf // nil: this iteration is not timed
		if r.iters%sampleEvery == 0 {
			b = r.buf
		}
		if r.iterate(b, id) {
			solved = true
			break
		}
	}
	r.stepped += used
	r.buf.add(id, r.parent, "search.step", t0, r.buf.now())
	return used, solved
}

// phaseClock times consecutive phases of one sampled iteration; with
// a nil buffer every call is a no-op.
type phaseClock struct {
	b     *spanBuf
	it, t int64
}

// lap records the span from the previous lap to now as a child of the
// iteration span.
func (c *phaseClock) lap(name string) {
	if c.b != nil {
		t := c.b.now()
		c.b.leaf(c.it, name, c.t, t)
		c.t = t
	}
}

// skip restarts the lap clock without recording a span.
func (c *phaseClock) skip() {
	if c.b != nil {
		c.t = c.b.now()
	}
}

// iterate is one iteration of search.Run's engine path. With a buffer
// it is timed as a search.iter span (under step) whose children are
// the phases.
func (r *phaseRun) iterate(b *spanBuf, step int64) bool {
	c := phaseClock{b: b}
	var t0 int64
	if b != nil {
		c.it = b.newID()
		t0 = b.now()
	}
	solved := r.iteratePhases(&c)
	if b != nil {
		b.add(c.it, step, "search.iter", t0, b.now())
	}
	return solved
}

func (r *phaseRun) iteratePhases(c *phaseClock) bool {
	r.cur.BeginEdit(&r.jr)
	c.skip()
	_, ok := r.mut.Apply(r.cur, r.rng)
	c.lap("mutate.apply")
	r.proposed++
	if !ok {
		r.cur.Rollback()
		c.lap("prog.rollback")
		return false
	}
	r.valid++
	bound := r.threshold()
	r.evaluated++
	c.skip()
	r.eng.Begin(&r.jr)
	c.lap("plan.begin")
	cst := r.kind.OfPlan(r.eng, bound)
	c.lap("cost.ofplan")
	if cst <= bound {
		r.accepted++
		r.eng.Commit()
		c.lap("plan.commit")
		r.cur.EndEdit()
		r.cost = cst
		if cst == 0 {
			r.finish()
			return true
		}
		return false
	}
	r.eng.Abort()
	c.lap("plan.abort")
	r.cur.Rollback()
	c.lap("prog.rollback")
	return false
}

// threshold draws the acceptance threshold exactly as search.Run does.
func (r *phaseRun) threshold() float64 {
	if r.beta == 0 {
		return r.cost
	}
	u := 1 - r.rng.Float64()
	return r.cost - r.beta*math.Log(u)
}

func (r *phaseRun) finish() {
	r.done = true
	r.sol = r.cur.Clone()
}

// Cost implements search.Search.
func (r *phaseRun) Cost() float64 { return r.cost }
