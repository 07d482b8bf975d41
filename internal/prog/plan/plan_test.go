package plan

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// randInstOp returns a uniformly random instruction opcode.
func randInstOp(rng *rand.Rand) prog.Op {
	return prog.Op(int(prog.OpConst) + 1 + rng.IntN(prog.NumOps-int(prog.OpConst)-1))
}

// randBodyNode returns a random body node for index idx whose
// arguments point at strictly lower indices (index order is a
// topological order by construction). A quarter of the nodes are
// constants, which exercises the compiler's immediate-folding paths.
func randBodyNode(rng *rand.Rand, idx int) prog.Node {
	if rng.IntN(4) == 0 {
		return prog.Node{Op: prog.OpConst, Val: rng.Uint64()}
	}
	nd := prog.Node{Op: randInstOp(rng)}
	nd.Args[0] = int32(rng.IntN(idx))
	nd.Args[1] = int32(rng.IntN(idx))
	return nd
}

// randProgram builds a random acyclic program with the given body
// size, rooted at the last node. Earlier body nodes the root does not
// reach are dead — exactly the shape that exercises the deferral
// path.
func randProgram(rng *rand.Rand, numInputs, body int) *prog.Program {
	p := prog.NewConst(numInputs, rng.Uint64())
	for k := 1; k < body; k++ {
		p.AppendNode(randBodyNode(rng, p.Len()))
	}
	p.SetRoot(int32(p.Len() - 1))
	return p
}

// TestKernelsMatchEvalOp pins every fusion-table kernel — VV, VI, and
// IV variants — to the per-case EvalOp reference for every
// instruction opcode, including split-range fills (chunked execution
// must be seamless) and boundary shift amounts in both column and
// immediate positions.
func TestKernelsMatchEvalOp(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewPCG(1, 2))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for c := 0; c < n; c++ {
		a[c], b[c] = rng.Uint64(), rng.Uint64()
	}
	boundary := []uint64{0, 1, 31, 32, 63, 64, 65, ^uint64(0),
		uint64(1) << 63, ^uint64(0) - 1, 2}
	// Boundary shift/rotate/divisor amounts at the front of both
	// operand columns.
	copy(a, boundary)
	copy(b, boundary)
	a[0] = uint64(1) << 63 // MinInt64 over a -1 divisor in early cases
	dst := make([]uint64, n)
	run := func(k kernel, av, bv []uint64, imm uint64) {
		for c := range dst {
			dst[c] = 0xdeadbeefdeadbeef // poison
		}
		k(dst, av, bv, imm, 0, 17)
		k(dst, av, bv, imm, 17, n)
	}
	for op := prog.OpConst + 1; op < prog.Op(prog.NumOps); op++ {
		ks := &fusion[op]
		if ks.VV == nil {
			t.Fatalf("%v: no VV kernel", op)
		}
		if op.Arity() == 1 {
			if ks.VI != nil || ks.IV != nil {
				t.Fatalf("%v: unary opcode with immediate kernel variants", op)
			}
			run(ks.VV, a, nil, 0)
			for c := 0; c < n; c++ {
				if want := prog.EvalOp(op, a[c], 0); dst[c] != want {
					t.Fatalf("%v VV case %d: kernel %#x, EvalOp %#x", op, c, dst[c], want)
				}
			}
			continue
		}
		run(ks.VV, a, b, 0)
		for c := 0; c < n; c++ {
			if want := prog.EvalOp(op, a[c], b[c]); dst[c] != want {
				t.Fatalf("%v VV case %d: kernel %#x, EvalOp %#x", op, c, dst[c], want)
			}
		}
		if ks.VI != nil {
			for _, imm := range boundary {
				run(ks.VI, a, nil, imm)
				for c := 0; c < n; c++ {
					if want := prog.EvalOp(op, a[c], imm); dst[c] != want {
						t.Fatalf("%v VI imm=%#x case %d: kernel %#x, EvalOp %#x",
							op, imm, c, dst[c], want)
					}
				}
			}
		}
		if ks.IV != nil {
			for _, imm := range boundary {
				run(ks.IV, nil, b, imm)
				for c := 0; c < n; c++ {
					if want := prog.EvalOp(op, imm, b[c]); dst[c] != want {
						t.Fatalf("%v IV imm=%#x case %d: kernel %#x, EvalOp %#x",
							op, imm, c, dst[c], want)
					}
				}
			}
		}
	}
}

// TestCommutativeTable verifies the operand-swap fusion premise: every
// opcode the compiler serves immediate-left through the VI kernel
// must actually be commutative under EvalOp, and must be binary.
func TestCommutativeTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for op := prog.Op(0); op < prog.Op(prog.NumOps); op++ {
		if !commutative[op] {
			continue
		}
		if op.Arity() != 2 {
			t.Fatalf("%v: commutative entry on non-binary opcode", op)
		}
		for trial := 0; trial < 256; trial++ {
			a, b := rng.Uint64(), rng.Uint64()
			if prog.EvalOp(op, a, b) != prog.EvalOp(op, b, a) {
				t.Fatalf("%v: not commutative on %#x, %#x", op, a, b)
			}
		}
	}
}

// constInputSuite builds a suite whose input 1 is the same value on
// every case, so absint's input facts pin it exactly and the full
// compiler folds everything downstream of it.
func constInputSuite(rng *rand.Rand, ncases int, fixed uint64) *testcase.Suite {
	s := &testcase.Suite{NumInputs: 2}
	for c := 0; c < ncases; c++ {
		in := []uint64{rng.Uint64(), fixed}
		s.Cases = append(s.Cases, testcase.Case{Inputs: in, Output: in[0] ^ fixed})
	}
	return s
}

// TestResetMatchesEval checks that a full compile-and-run reproduces,
// column for column, the values the per-case evaluator computes —
// over a suite with one constant input, so the absint folding paths
// (whole-node fills and immediate operands) are actually taken.
func TestResetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0x5eed))
	suite := constInputSuite(rng, 29, 0x1234)
	e := New(suite)
	var vals, cv [prog.MaxNodes]uint64
	for trial := 0; trial < 100; trial++ {
		p := randProgram(rng, 2, 1+rng.IntN(prog.MaxBody))
		e.Reset(p)
		for c, tc := range suite.Cases {
			root := p.Eval(tc.Inputs, vals[:])
			if e.RootColumn()[c] != root {
				t.Fatalf("trial %d case %d: root column %#x, eval %#x",
					trial, c, e.RootColumn()[c], root)
			}
			e.CaseValues(c, cv[:])
			for i := range p.Nodes {
				if cv[i] != vals[i] {
					t.Fatalf("trial %d node %d case %d: CaseValues %#x, eval %#x",
						trial, i, c, cv[i], vals[i])
				}
			}
		}
	}
	st := e.PlanStats()
	if st.Compiles == 0 || st.FusedNodes == 0 {
		t.Fatalf("folding paths not exercised: %+v", st)
	}
}

// TestRecipeCache checks that Reset with a previously seen shape is
// served from the cache and still yields exact columns, and that a
// hash-colliding-but-different shape never reuses a wrong recipe
// (structural verification on hit).
func TestRecipeCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0xcafe))
	suite := constInputSuite(rng, 17, 42)
	e := New(suite)
	progs := make([]*prog.Program, 8)
	for i := range progs {
		progs[i] = randProgram(rng, 2, 1+rng.IntN(prog.MaxBody))
	}
	var vals [prog.MaxNodes]uint64
	base := e.PlanStats()
	for round := 0; round < 3; round++ {
		for _, p := range progs {
			e.Reset(p)
			for c, tc := range suite.Cases {
				if want := p.Eval(tc.Inputs, vals[:]); e.RootColumn()[c] != want {
					t.Fatalf("round %d case %d: root %#x, eval %#x",
						round, c, e.RootColumn()[c], want)
				}
			}
		}
	}
	d := e.PlanStats().Sub(base)
	if d.CacheHits < int64(2*len(progs)) {
		t.Fatalf("cache hits = %d, want >= %d (stats %+v)", d.CacheHits, 2*len(progs), d)
	}
	// A second State on the same suite shares the published recipes.
	e2 := New(suite)
	e2.Reset(progs[0])
	if st := e2.PlanStats(); st.CacheHits != 1 || st.Compiles != 0 {
		t.Fatalf("shared cache not hit from a fresh State: %+v", st)
	}
}

// TestPlanIncrementalRandomEdits is the plan engine's core property
// test, run in lockstep with the interpreted engine: a long random
// walk of journaled in-place edits — opcode and argument rewrites,
// appends, and root moves that leave nodes dead — applied identically
// to two copies of the program, one per engine (a Commit collects its
// engine's program, so the engines cannot share one). Every proposal's
// EvalRange output is checked against the interpreted engine and a
// from-scratch evaluation; every committed program must have no dead
// code, compute what its proposal computed, and match its twin; and
// the committed matrices are compared node for node after every Commit
// and every Abort+Rollback.
func TestPlanIncrementalRandomEdits(t *testing.T) {
	const numInputs = 2
	const ncases = 19 // not a multiple of EvalChunk: exercises the tail block
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xe17))
		suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1] },
			numInputs, ncases, rng)
		p := randProgram(rng, numInputs, 6)
		pr := p.Clone() // the interpreted engine's copy
		ref := prog.NewEvalState(suite)
		ref.Reset(pr)
		e := New(suite)
		e.Reset(p)
		var j, jr prog.Journal
		both := func(edit func(*prog.Program)) { edit(p); edit(pr) }
		got := make([]uint64, ncases)
		want := make([]uint64, ncases)
		var vals, cvPlan, cvRef [prog.MaxNodes]uint64
		for iter := 0; iter < 300; iter++ {
			snap := p.Clone()
			p.BeginEdit(&j)
			pr.BeginEdit(&jr)
			for w, nwrites := 0, 1+rng.IntN(3); w < nwrites; w++ {
				switch k := rng.IntN(3); {
				case k == 0 && p.BodyLen() > 0:
					// Arity-preserving opcode swap, like the real opcode
					// move.
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					if op, ok := prog.FullSet.RandomOpArity(rng, p.Nodes[i].Op.Arity()); ok {
						both(func(x *prog.Program) { x.SetOp(i, op) })
					}
				case k == 1 && p.BodyLen() > 0:
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					a, v := rng.IntN(prog.MaxArity), int32(rng.IntN(int(i)))
					both(func(x *prog.Program) { x.SetArg(i, a, v) })
				case p.Len() < prog.MaxNodes:
					nd := randBodyNode(rng, p.Len())
					both(func(x *prog.Program) { x.AppendNode(nd) })
				}
			}
			// Occasionally move the root. Nodes the edits leave dead stay
			// in place until a Commit collects them.
			if rng.IntN(4) == 0 {
				root := int32(rng.IntN(p.Len()))
				both(func(x *prog.Program) { x.SetRoot(root) })
			}
			ref.Begin(&jr)
			e.Begin(&j)
			for c0 := 0; c0 < ncases; c0 += prog.EvalChunk {
				c1 := c0 + prog.EvalChunk
				if c1 > ncases {
					c1 = ncases
				}
				copy(got[c0:c1], e.EvalRange(c0, c1))
				copy(want[c0:c1], ref.EvalRange(c0, c1))
			}
			q := p.Clone()
			for c, tc := range suite.Cases {
				fresh := q.Eval(tc.Inputs, vals[:])
				if got[c] != fresh || got[c] != want[c] {
					t.Fatalf("seed %d iter %d case %d: plan %#x, engine %#x, fresh %#x",
						seed, iter, c, got[c], want[c], fresh)
				}
			}
			if rng.IntN(2) == 0 {
				ref.Commit()
				e.Commit()
				if p.Journal() != nil || pr.Journal() != nil {
					t.Fatalf("seed %d iter %d: Commit left the edit open", seed, iter)
				}
				if live := p.Reachable() | (1<<numInputs - 1); live != uint64(1)<<uint(p.Len())-1 {
					t.Fatalf("seed %d iter %d: committed program keeps dead nodes: %s", seed, iter, p)
				}
				for c, tc := range suite.Cases {
					if out := p.Output(tc.Inputs); out != got[c] {
						t.Fatalf("seed %d iter %d case %d: committed %#x, proposal %#x", seed, iter, c, out, got[c])
					}
				}
			} else {
				ref.Abort()
				e.Abort()
				p.Rollback()
				pr.Rollback()
				if !p.Equal(snap) {
					t.Fatalf("seed %d iter %d: rollback diverged", seed, iter)
				}
			}
			if !p.Equal(pr) {
				t.Fatalf("seed %d iter %d: engine programs diverged:\n plan %s\n engine %s", seed, iter, p, pr)
			}
			// Both committed matrices must describe the current program
			// exactly, whichever branch was taken.
			for c, tc := range suite.Cases {
				p.Eval(tc.Inputs, vals[:])
				e.CaseValues(c, cvPlan[:])
				ref.CaseValues(c, cvRef[:])
				for i := range p.Nodes {
					if cvPlan[i] != vals[i] || cvPlan[i] != cvRef[i] {
						t.Fatalf("seed %d iter %d node %d case %d: plan %#x, engine %#x, eval %#x",
							seed, iter, i, c, cvPlan[i], cvRef[i], vals[i])
					}
				}
			}
		}
		est, rst := e.Stats(), ref.Stats()
		if est != rst {
			t.Fatalf("seed %d: eval stats diverged: plan %+v, engine %+v", seed, est, rst)
		}
		if pst := e.PlanStats(); pst.Patches == 0 || pst.Patches != est.NodesReevaluated {
			t.Fatalf("seed %d: implausible plan stats %+v (eval %+v)", seed, pst, est)
		}
	}
}

// neutralFamilies groups opcodes that compute the same value whenever
// their operands fit in 32 bits (the model-dialect bitwise ops agree
// with their full-set twins on every input). Swapping within a family
// is a value-neutral move on such operands: the swapped node is a seed
// whose column equals its committed one.
var neutralFamilies = [][]prog.Op{
	{prog.OpAnd, prog.OpAnd32, prog.OpMAnd},
	{prog.OpOr, prog.OpOr32, prog.OpMOr},
	{prog.OpXor, prog.OpXor32, prog.OpMXor},
}

// neutralSwap returns another member of op's family, if it has one.
func neutralSwap(rng *rand.Rand, op prog.Op) (prog.Op, bool) {
	for _, fam := range neutralFamilies {
		for k, o := range fam {
			if o == op {
				return fam[(k+1+rng.IntN(len(fam)-1))%len(fam)], true
			}
		}
	}
	return 0, false
}

// narrowSuite builds an n-case suite over two inputs: cases before
// narrow hold 32-bit values, the rest full 64-bit ones.
func narrowSuite(rng *rand.Rand, n, narrow int) *testcase.Suite {
	s := &testcase.Suite{NumInputs: 2}
	for c := 0; c < n; c++ {
		in := []uint64{rng.Uint64(), rng.Uint64()}
		if c < narrow {
			in[0], in[1] = uint64(uint32(in[0])), uint64(uint32(in[1]))
		}
		s.Cases = append(s.Cases, testcase.Case{Inputs: in, Output: in[0] & in[1]})
	}
	return s
}

// sameOp reports whether two lowerings are identical, kernel included.
func sameOp(a, b compiledOp) bool {
	return reflect.ValueOf(a.kern).Pointer() == reflect.ValueOf(b.kern).Pointer() &&
		a.argA == b.argA && a.argB == b.argB && a.imm == b.imm
}

// TestCutoffKeepsCommittedStateExact drives the value cutoff with a
// random walk of journaled edits biased toward value-neutral opcode
// swaps (andq to and32 and the like, on 32-bit operands), mixed with
// real opcode and operand rewrites, no-op writes, appends and root
// moves. Each proposal is evaluated in one full pass or in the probe
// schedule (16 cases, then the rest). The proposal root must match a
// fresh evaluation, and after every Commit or Abort every committed
// column must equal a fresh prog.Eval and pops a fresh rebuildPops.
//
// Two suites: on the all-narrow one the swaps are neutral on every
// case, so full passes cut off; on the one that turns wide after the
// probe block they are neutral on the probe cases only, so a cutoff
// applied to a probe block would serve wrong values.
func TestCutoffKeepsCommittedStateExact(t *testing.T) {
	const numInputs, ncases = 2, 40
	for _, narrow := range []int{ncases, prog.EvalChunk} {
		rng := rand.New(rand.NewPCG(uint64(narrow), 0xc0ff))
		suite := narrowSuite(rng, ncases, narrow)
		p := prog.NewConst(numInputs, 7)
		for p.Len() < 12 {
			fam := neutralFamilies[rng.IntN(len(neutralFamilies))]
			nd := prog.Node{Op: fam[rng.IntN(len(fam))]}
			nd.Args[0], nd.Args[1] = int32(rng.IntN(p.Len())), int32(rng.IntN(p.Len()))
			p.AppendNode(nd)
		}
		p.SetRoot(int32(p.Len() - 1))
		p.GC()
		e := New(suite)
		e.Reset(p)
		var j prog.Journal
		var vals, cv [prog.MaxNodes]uint64
		var swaps int
		for iter := 0; iter < 600; iter++ {
			p.BeginEdit(&j)
			for w, nwrites := 0, 1+rng.IntN(3); w < nwrites && p.BodyLen() > 0; w++ {
				i := int32(numInputs + rng.IntN(p.BodyLen()))
				nd := p.Nodes[i]
				switch k := rng.IntN(8); {
				case k < 4:
					if op, ok := neutralSwap(rng, nd.Op); ok {
						p.SetOp(i, op)
						swaps++
					}
				case k == 4 && nd.Op.IsInstruction():
					p.SetArg(i, 0, nd.Args[0]) // a no-op write
					if op, ok := prog.FullSet.RandomOpArity(rng, nd.Op.Arity()); ok {
						p.SetOp(i, op)
					}
				case k == 5 && nd.Op.IsInstruction():
					p.SetArg(i, rng.IntN(nd.Op.Arity()), int32(rng.IntN(int(i))))
				case k == 6 && p.Len() < prog.MaxNodes:
					fam := neutralFamilies[rng.IntN(len(neutralFamilies))]
					n := prog.Node{Op: fam[rng.IntN(len(fam))]}
					n.Args[0], n.Args[1] = int32(rng.IntN(p.Len())), int32(rng.IntN(p.Len()))
					p.SetArg(i, 0, p.AppendNode(n))
				case k == 7:
					p.SetRoot(int32(numInputs + rng.IntN(p.Len()-numInputs)))
				}
			}
			if err := p.Validate(); err != nil {
				p.Rollback() // an operand rewrite closed a cycle
				continue
			}
			e.Begin(&j)
			if rng.IntN(2) == 0 {
				e.RunTape(0, ncases)
			} else {
				e.RunTape(0, prog.EvalChunk)
				e.RunTape(prog.EvalChunk, ncases)
			}
			root := e.ProposalRoot()
			for c, tc := range suite.Cases {
				if want := p.Eval(tc.Inputs, vals[:]); root[c] != want {
					t.Fatalf("narrow %d iter %d case %d: proposal root %#x, eval %#x\n%s", narrow, iter, c, root[c], want, p)
				}
			}
			if rng.IntN(2) == 0 {
				e.Commit()
			} else {
				e.Abort()
				p.Rollback()
			}
			for c, tc := range suite.Cases {
				p.Eval(tc.Inputs, vals[:])
				e.CaseValues(c, cv[:])
				for i := range p.Nodes {
					if cv[i] != vals[i] {
						t.Fatalf("narrow %d iter %d node %d case %d: committed %#x, eval %#x\n%s",
							narrow, iter, i, c, cv[i], vals[i], p)
					}
				}
			}
			pops, fused := e.pops, e.popsFused
			e.rebuildPops()
			for i := numInputs; i < p.Len(); i++ {
				if !sameOp(pops[i], e.pops[i]) {
					t.Fatalf("narrow %d iter %d: pops[%d] is stale\n%s", narrow, iter, i, p)
				}
			}
			if fused != e.popsFused {
				t.Fatalf("narrow %d iter %d: popsFused %#x, rebuilt %#x", narrow, iter, fused, e.popsFused)
			}
		}
		if st := e.PlanStats(); st.Skipped == 0 || swaps == 0 {
			t.Fatalf("narrow %d: the cutoff never fired (%d swaps, stats %+v)", narrow, swaps, st)
		}
	}
}
