// Package plan compiles candidate programs into flat evaluation
// plans: linear instruction tapes of fused column kernels that the
// search inner loop executes with no per-case opcode dispatch and no
// allocation.
//
// The interpreted incremental engine (prog.EvalState, DESIGN.md §10)
// already reuses committed value columns across proposals, but still
// pays one opcode switch per dirty column per case block and one evalOp
// call per case for the opcodes without a dedicated loop. The plan
// layer goes one step further down ROADMAP item 1's ladder: a full
// compile at Reset turns the program into a tape of op-specialized
// kernels over pre-resolved operand columns, with constant operands
// folded to immediates via the absint facts of
// internal/prog/analysis/absint (sound over the suite's input set),
// and an incremental recompile path that re-lowers only the
// journal-dirty nodes on each move. Dirty nodes the cost path does not
// need (unreachable from the root once constant operands are folded)
// are elided from it entirely and materialized only if the move
// commits, and a recomputed column that equals its committed one
// spares the users it feeds (the value cutoff, see State.run).
//
// State is a drop-in sibling of prog.EvalState: same lifecycle
// (Reset / Begin / EvalRange / Commit / Abort), same double-buffered
// column discipline (header-swap Commit, free Abort), and
// bit-identical value columns by construction — every kernel body is
// the corresponding evalOp arm, folding is exact, and case order is
// preserved. The three-way differential harness in internal/search
// (FuzzIncrementalEval) pins legacy, interpreted, and compiled arms
// to identical trajectories.
//
// Full compiles are amortized by a shape-keyed recipe cache shared by
// all States on the same suite (restart-heavy searches re-seed from
// identical or previously seen programs constantly), so a checkpoint
// Restore or restart usually re-binds a cached tape instead of
// re-lowering.
package plan

import (
	mathbits "math/bits"
	"slices"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/testcase"
)

// Stats counts the compiler's work: full tape compiles (cache
// misses), cache hits, incremental tape patches (dirty nodes
// re-lowered across proposals), nodes lowered to a fused form
// (constant-folded whole, or an immediate-operand kernel variant), and
// live proposal nodes the value cutoff did not run.
type Stats struct {
	Compiles   int64
	CacheHits  int64
	Patches    int64
	FusedNodes int64
	Skipped    int64
}

// Sub returns the element-wise difference s - o (for delta flushes).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Compiles:   s.Compiles - o.Compiles,
		CacheHits:  s.CacheHits - o.CacheHits,
		Patches:    s.Patches - o.Patches,
		FusedNodes: s.FusedNodes - o.FusedNodes,
		Skipped:    s.Skipped - o.Skipped,
	}
}

// State is the compiled evaluation engine. It mirrors prog.EvalState
// field for field where the interpreted engine's layout is already
// right (committed columns + proposal shadow columns over one backing
// array) and replaces interpretation with tape execution. A State is
// single-threaded, owned by one search run.
type State struct {
	p      *prog.Program
	suite  *testcase.Suite
	ncases int

	// cols[i] is the committed value column of node i; prop[i] the
	// proposal shadow. Commit swaps headers, never copies values. The
	// slot at noArg stays nil in both.
	cols [prog.MaxNodes + 1][]uint64
	prop [prog.MaxNodes + 1][]uint64

	// inFacts are the suite's input facts, computed once; facts is the
	// Analyze scratch buffer reused across full compiles.
	inFacts []absint.Value
	facts   []absint.Value

	// pops[i] caches the facts-free (patch-path) lowering of committed
	// node i, with popsFused marking immediate-form lowerings. Begin
	// re-lowers only the journal's seeds (their op or arguments
	// changed); every other dirty node reuses its cached op. That is
	// exact because a lowering depends only on the node itself and on
	// which of its arguments are constants (and their values), and no
	// move turns a node that existed before the edit into or out of
	// OpConst or changes a constant's value (the mutate debug gate
	// asserts it): a non-seed node's arguments are all pre-edit nodes,
	// so its cached syntactic fold still holds. The cache is maintained at Reset (full build)
	// and Commit (dirty slots from this proposal's lowerings, and a
	// full rebuild after the commit compacts); aborted proposals never
	// touch it.
	pops      [32]compiledOp
	popsFused uint32

	// Active proposal state (between Begin and Commit/Abort). seeds
	// are the journal's dirty nodes (their op or arguments changed),
	// dirty is their closure over users, and changed marks the dirty
	// nodes whose proposal column prop[i] holds their values: every
	// other node's values are in cols[i], either because it is clean or
	// because the value cutoff found its proposal column equal to the
	// committed one (see run). order lists the live nodes — the dirty
	// nodes the root reads through post-fold column operands — in
	// topological order as order[:nlive]; Commit appends the deferred
	// rest. seen marks the nodes ordered so far.
	seeds   uint32
	dirty   uint32
	changed uint32
	seen    uint32
	order   [32]int32
	nlive   int
	norder  int

	// Begin scratch, indexed by proposal node index; only slots in the
	// active dirty set are meaningful. ops holds this proposal's
	// lowerings (Commit folds them back into pops), opsFused the fused
	// flags, am the post-fold argument masks (the column operands) the
	// ordering walk and the cutoff run on.
	ops      [32]compiledOp
	opsFused uint32
	am       [32]uint32

	estats prog.EvalStats
	pstats Stats
}

// New builds a compiled engine for the suite, with the permanent
// input-node columns filled in. Call Reset to bind a program.
func New(s *testcase.Suite) *State {
	n := s.Len()
	e := &State{suite: s, ncases: n}
	backing := make([]uint64, 2*prog.MaxNodes*n)
	for i := 0; i < prog.MaxNodes; i++ {
		e.cols[i] = backing[i*n : (i+1)*n : (i+1)*n]
		e.prop[i] = backing[(prog.MaxNodes+i)*n : (prog.MaxNodes+i+1)*n : (prog.MaxNodes+i+1)*n]
	}
	for i := 0; i < s.NumInputs; i++ {
		col := e.cols[i]
		for c := range s.Cases {
			col[c] = s.Cases[c].Inputs[i]
		}
	}
	e.inFacts = absint.InputFacts(s)
	return e
}

// Suite returns the suite the engine evaluates against.
func (e *State) Suite() *testcase.Suite { return e.suite }

// Program returns the program the committed columns describe.
func (e *State) Program() *prog.Program { return e.p }

// Stats returns the cumulative evaluation-work counters, with the
// same semantics as prog.EvalState.Stats (proposal path only).
func (e *State) Stats() prog.EvalStats { return e.estats }

// PlanStats returns the cumulative compilation counters.
func (e *State) PlanStats() Stats { return e.pstats }

// RootColumn returns the committed value column of the program root.
func (e *State) RootColumn() []uint64 { return e.cols[e.p.Root] }

// CaseValues writes the committed value of every node on suite case c
// into dst, the engine counterpart of Program.Eval's all-node output
// (used by the redundancy move's signature probes).
func (e *State) CaseValues(c int, dst []uint64) {
	for i := 0; i < len(e.p.Nodes); i++ {
		dst[i] = e.cols[i][c]
	}
}

// Reset binds p, compiles it to a full tape (or re-binds a cached
// recipe for a previously seen shape), and executes the tape to
// populate every committed column. Used at search start, restarts,
// and checkpoint restores; the incremental path never needs it.
func (e *State) Reset(p *prog.Program) {
	if p.NumInputs != e.suite.NumInputs {
		panic("plan: State.Reset program/suite input arity mismatch")
	}
	e.p = p
	rec, hit := lookupRecipe(e, p)
	if hit {
		e.pstats.CacheHits++
	} else {
		e.pstats.Compiles++
	}
	e.pstats.FusedNodes += rec.fused
	for _, i := range rec.order {
		if int(i) < p.NumInputs {
			continue // permanent, precomputed
		}
		op := &rec.ops[i]
		op.kern(e.cols[i], e.cols[op.argA], e.cols[op.argB], op.imm, 0, e.ncases)
	}
	e.rebuildPops()
}

// compileFull lowers every node of p into a shareable recipe, folding
// absint facts: a node the analysis pins to a single value over the
// suite's inputs compiles to a constant fill, and an operand pinned
// the same way folds to an immediate-form kernel. Facts are sound for
// exactly the suite's cases (InputFacts is their join), so folding is
// value-preserving on every column the engine computes.
func (e *State) compileFull(p *prog.Program) *recipe {
	e.facts = absint.Analyze(p, e.inFacts, e.facts)
	rec := &recipe{order: append([]int32(nil), p.TopoOrder()...), ops: make([]compiledOp, len(p.Nodes))}
	for i := range p.Nodes {
		if i < p.NumInputs {
			continue
		}
		var fused bool
		rec.ops[i], fused = compileNode(p, int32(i), e.facts)
		if fused {
			rec.fused++
		}
	}
	return rec
}

// noArg is the operand index of a folded or unused operand. It is one
// past the last node, so it indexes the engine's nil column slot and
// shifts out of every 32-bit node mask.
const noArg = prog.MaxNodes

// compiledOp is one unbound tape instruction: the kernel and the node
// indices of its column operands (noArg when folded to imm or unused).
type compiledOp struct {
	kern kernel
	argA int32
	argB int32
	imm  uint64
}

// exactVal reports a compile-time-known constant value for node n. On
// the full-compile path (facts non-nil) it consults the absint facts;
// on the incremental patch path (facts nil) only syntactic OpConst
// nodes fold — running the analysis per proposal would cost more than
// it saves, and the facts buffer is stale against the edited program.
func exactVal(p *prog.Program, facts []absint.Value, n int32) (uint64, bool) {
	if facts != nil {
		return facts[n].Exact()
	}
	if nd := &p.Nodes[n]; nd.Op == prog.OpConst {
		return nd.Val, true
	}
	return 0, false
}

// compileNode lowers node i to a kernel and operand bindings, folding
// constants known to exactVal. Returns the lowered op and whether any
// folding happened (for the fused-nodes counter).
func compileNode(p *prog.Program, i int32, facts []absint.Value) (compiledOp, bool) {
	nd := &p.Nodes[i]
	switch nd.Op {
	case prog.OpConst:
		return compiledOp{kern: kFill, argA: noArg, argB: noArg, imm: nd.Val}, false
	case prog.OpInput:
		// Defensive, mirroring the interpreted engine: body nodes are
		// never inputs, but compile to a copy of the input column if
		// one lands here.
		return compiledOp{kern: kCopy, argA: int32(nd.Val), argB: noArg}, false
	}
	if facts != nil {
		if v, ok := facts[i].Exact(); ok {
			// The whole node is pinned to one value across the suite.
			return compiledOp{kern: kFill, argA: noArg, argB: noArg, imm: v}, true
		}
	}
	ks := &fusion[nd.Op]
	if ks.VV == nil {
		panic("plan: no kernel for opcode " + nd.Op.String())
	}
	a := nd.Args[0]
	if nd.Op.Arity() == 1 {
		if va, ok := exactVal(p, facts, a); ok {
			return compiledOp{kern: kFill, argA: noArg, argB: noArg, imm: prog.EvalOp(nd.Op, va, 0)}, true
		}
		return compiledOp{kern: ks.VV, argA: a, argB: noArg}, false
	}
	b := nd.Args[1]
	if facts == nil && p.Nodes[a].Op != prog.OpConst && p.Nodes[b].Op != prog.OpConst {
		return compiledOp{kern: ks.VV, argA: a, argB: b}, false // patch path: nothing folds
	}
	va, aok := exactVal(p, facts, a)
	vb, bok := exactVal(p, facts, b)
	switch {
	case aok && bok:
		return compiledOp{kern: kFill, argA: noArg, argB: noArg, imm: prog.EvalOp(nd.Op, va, vb)}, true
	case bok && ks.VI != nil:
		return compiledOp{kern: ks.VI, argA: a, argB: noArg, imm: vb}, true
	case aok && commutative[nd.Op] && ks.VI != nil:
		return compiledOp{kern: ks.VI, argA: b, argB: noArg, imm: va}, true
	case aok && ks.IV != nil:
		return compiledOp{kern: ks.IV, argA: noArg, argB: b, imm: va}, true
	}
	return compiledOp{kern: ks.VV, argA: a, argB: b}, false
}

// rebuildPops relowers every committed body node into the patch-path
// cache: the facts-free compiledOp and the fused bit. O(nodes); runs
// at Reset and after a compacting Commit, the two points where
// committed indices change wholesale.
func (e *State) rebuildPops() {
	p := e.p
	e.popsFused = 0
	for i := p.NumInputs; i < len(p.Nodes); i++ {
		op, fused := compileNode(p, int32(i), nil)
		e.pops[i] = op
		if fused {
			e.popsFused |= 1 << uint(i)
		}
	}
}

// Begin starts a proposal against the journaled in-place edit: it
// closes the journal's dirty seeds over transitive users, lowers each
// dirty node (re-lowering only the seeds and reusing the pops cache
// for the rest), and orders the live nodes by a post-order walk from
// the root. Operand columns are resolved as the nodes run (see run),
// because the value cutoff decides only then which of them changed.
//
// The closure runs as a bitmask worklist over the program's own user
// masks (Program.UserMasks), which the journaling mutators keep exact
// for the edited proposal. An edit never renumbers nodes, so committed
// columns are addressed by current index. The nodes a move unhooks
// stay in place, clean and unreachable: no dirty node reaches them, so
// they never enter the closure and are never evaluated.
//
// The walk runs on the post-fold argument masks (e.am) restricted to
// the dirty set: an operand folded to an immediate is no longer a
// column dependency, so a dirty constant all of whose users folded it
// away is not live. Every user of a dirty node is itself dirty, so any
// root-to-dirty-node path runs through dirty nodes only, and the walk
// from a dirty root reaches exactly the dirty nodes the cost path
// needs. The rest are deferred: Commit materializes them, and a
// rejected proposal never computes them at all.
func (e *State) Begin(j *prog.Journal) {
	p := e.p
	seeds := j.Dirty()
	dirty := seeds
	if dirty != 0 {
		// Close the seeds over users and lower each node as it is
		// reached — cache hit unless the node is a seed — recording its
		// post-fold argument mask.
		users := p.UserMasks()
		e.opsFused = 0
		for work := dirty; work != 0; {
			i := mathbits.TrailingZeros32(work) & 31
			bit := uint32(1) << uint(i)
			work &^= bit
			nu := users[i] &^ dirty
			dirty |= nu
			work |= nu
			var op compiledOp
			var fused bool
			if seeds&bit == 0 {
				op = e.pops[i]
				fused = e.popsFused&bit != 0
			} else {
				op, fused = compileNode(p, int32(i), nil)
			}
			e.ops[i] = op
			if fused {
				e.opsFused |= bit
				e.pstats.FusedNodes++
			}
			// A noArg operand shifts out of the 32-bit mask.
			e.am[i] = uint32(1)<<uint(op.argA) | uint32(1)<<uint(op.argB)
		}
	}
	e.seeds, e.dirty, e.changed, e.seen, e.norder = seeds, dirty, 0, 0, 0
	if dirty&(1<<uint(p.Root)) != 0 {
		e.visit(int(p.Root) & 31)
	}
	e.nlive = e.norder
	nd := int64(mathbits.OnesCount32(dirty))
	e.pstats.Patches += nd
	e.estats.NodesReevaluated += nd
	e.estats.NodesTotal += int64(len(p.Nodes))
	e.estats.CasesTotal += int64(e.ncases)
}

// visit appends dirty node i to the order after every not yet seen
// node it reads through the dirty-argument masks: a post-order walk, so
// arguments precede their users. seen marks nodes as they are pushed;
// in a DAG a pushed node is never reached again before it is emitted.
func (e *State) visit(i int) {
	var stack [32]uint8
	seen, n, sp := e.seen|1<<uint(i), e.norder, 1
	stack[0] = uint8(i)
	for sp > 0 {
		top := stack[(sp-1)&31] & 31
		if m := e.am[top] & e.dirty &^ seen; m != 0 {
			k := mathbits.TrailingZeros32(m)
			seen |= 1 << uint(k)
			stack[sp&31] = uint8(k)
			sp++
			continue
		}
		sp--
		e.order[n&31] = int32(top)
		n++
	}
	e.seen, e.norder = seen, n
}

// column resolves node i's value column for the active proposal: the
// shadow buffer when i is changed, the committed column otherwise, and
// nil for a folded or unused operand (i == noArg).
func (e *State) column(i int32) []uint64 {
	if e.changed&(1<<uint(i)) != 0 {
		return e.prop[i]
	}
	return e.cols[i]
}

// run executes the ordered nodes for suite cases [c0, c1) and returns
// how many the value cutoff skipped. The cutoff applies only to a pass
// over every case; a probe block sees some of the cases and marks each
// node it runs changed. On a full pass:
//
//   - a node that is not a seed, and none of whose dirty arguments
//     changed, is not run: its op and operand values equal the
//     committed ones (a non-seed's lowering is the committed one, and
//     its folded operands are constants no move rewrites), so its
//     committed column already holds its values;
//   - a node that runs is marked changed only if its column differs
//     from the committed one. Equal columns serve the proposal from
//     cols, which is exact whatever that column last held: the values
//     are the same. (For an appended node the committed slot is stale,
//     and the comparison almost always fails at the first case.) The
//     root is not compared: no live node reads it.
//
// Seeds always run: their op or operands changed, so their committed
// column is no evidence of their values.
func (e *State) run(nodes []int32, c0, c1 int) (skipped int64) {
	full := c0 == 0 && c1 == e.ncases
	root := e.p.Root
	for _, i := range nodes {
		i &= 31
		bit := uint32(1) << uint(i)
		if full && e.seeds&bit == 0 && e.am[i]&e.changed == 0 {
			skipped++
			continue
		}
		op := &e.ops[i]
		dst := e.prop[i]
		op.kern(dst, e.column(op.argA), e.column(op.argB), op.imm, c0, c1)
		if !full || i == root || !slices.Equal(dst, e.cols[i]) {
			e.changed |= bit
		}
	}
	return skipped
}

// RunTape executes the live proposal nodes for suite cases [c0, c1)
// without resolving a root sub-column — the fused cost path
// (cost.Kind.OfPlan) reads the root via ProposalRoot after each call.
// Work accounting matches EvalRange exactly (it is EvalRange minus the
// reslice).
func (e *State) RunTape(c0, c1 int) {
	e.pstats.Skipped += e.run(e.order[:e.nlive], c0, c1)
	e.estats.CasesEvaluated += int64(c1 - c0)
}

// ProposalRoot returns the active proposal's full root value column;
// entries for cases [c0, c1) are valid once RunTape(c0, c1) has run.
// Resolve it after RunTape: the cutoff decides during the pass whether
// the root's values are in its shadow or its committed column.
func (e *State) ProposalRoot() []uint64 { return e.column(e.p.Root) }

// EvalRange runs the live proposal nodes for suite cases [c0, c1) and
// returns the proposal's root values for that range. Consumers pull
// blocks in case order and may stop early; Commit requires every
// block to have been pulled.
func (e *State) EvalRange(c0, c1 int) []uint64 {
	e.RunTape(c0, c1)
	return e.ProposalRoot()[c0:c1]
}

// Commit adopts the proposal: the deferred nodes are ordered and
// materialized over every case (the committed matrix must be exact for
// every node — CaseValues feeds the redundancy probes), the changed
// shadow columns are swapped in, every dirty node's lowering is
// adopted into pops (a seed the cutoff found equal still has a new
// lowering), and the program's edit is ended and its dead nodes
// collected, with the surviving columns re-homed to their compacted
// indices. Header permutation only, no value copies.
func (e *State) Commit() {
	for m := e.dirty &^ e.seen; m != 0; m = e.dirty &^ e.seen {
		e.visit(mathbits.TrailingZeros32(m) & 31)
	}
	e.run(e.order[e.nlive:e.norder], 0, e.ncases)
	for mask := e.dirty; mask != 0; {
		i := mathbits.TrailingZeros32(mask)
		bit := uint32(1) << uint(i)
		mask &^= bit
		if e.changed&bit != 0 {
			e.cols[i], e.prop[i] = e.prop[i], e.cols[i]
		}
		// Adopt the proposal lowering: the facts-free patch compile is
		// exactly what Begin produced (compileNode with nil facts).
		e.pops[i] = e.ops[i]
		e.popsFused = e.popsFused&^bit | e.opsFused&bit
	}
	if e.p.CommitEdit(e.cols[:prog.MaxNodes]) {
		// Committed indices moved wholesale; relower the whole cache.
		e.rebuildPops()
	}
	e.Abort()
}

// Abort discards the proposal. The committed columns were never
// touched, so after the program edit is rolled back the engine is
// exactly in its pre-proposal state.
func (e *State) Abort() {
	e.seeds, e.dirty, e.changed, e.seen = 0, 0, 0, 0
	e.nlive, e.norder = 0, 0
}
