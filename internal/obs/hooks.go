package obs

// This file defines the hook bundles that instrumented components
// accept: pre-resolved metric handles grouped per subsystem, so the
// hot paths never touch the registry maps. The bundles are plain
// data — package obs knows nothing about searches or restart
// strategies; the packages that own those concepts construct the
// bundles (search.NewObsHooks, restart.NewObsHooks) with the
// stochsyn_* metric names and move/strategy labels filled in.

// SearchHooks instruments one family of search runs (all searches
// spawned by one factory share the bundle; each search gets a clone
// with its own ID via WithID). All fields are optional: nil handles
// drop updates, a nil Tracer drops events, and a nil *SearchHooks
// disables instrumentation entirely.
//
// The search loop flushes into these handles in batches (every
// search.CancelCheckEvery iterations and at every Step boundary), so
// readers see counters that may lag the loop by one flush interval
// but are always mutually consistent at Step boundaries.
type SearchHooks struct {
	// Iterations counts executed search-loop iterations.
	Iterations *Counter
	// Proposed and Accepted count move proposals and acceptances,
	// indexed by the move's ordinal (mutate.Move). Slices shorter
	// than the move count simply drop the excess ordinals.
	Proposed []*Counter
	Accepted []*Counter
	// CurCost is a live gauge of the most recently flushed search
	// cost (last writer wins across concurrent searches).
	CurCost *Gauge
	// BestCost tracks the minimum cost ever flushed (SetMin).
	BestCost *Gauge
	// Plateaus counts plateau entries across all searches.
	Plateaus *Counter
	// PlateauWindow overrides the detector window (0 = default).
	PlateauWindow int64
	// EvalNodesReevaluated and EvalNodesTotal count, respectively,
	// node value columns the incremental evaluation engine actually
	// recomputed and the columns a full re-evaluation would have
	// computed; 1 - reevaluated/total is the engine's column reuse
	// rate. EvalCasesEvaluated and EvalCasesTotal do the same for
	// suite cases, exposing the early-abort saving. All four stay at
	// zero under Options.LegacyEval.
	EvalNodesReevaluated *Counter
	EvalNodesTotal       *Counter
	EvalCasesEvaluated   *Counter
	EvalCasesTotal       *Counter
	// PlanCompiles and PlanCacheHits count, respectively, full tape
	// compiles the plan engine performed and the full compiles it
	// avoided by re-binding a cached recipe (restarts and checkpoint
	// restores re-seed from previously seen shapes constantly).
	// PlanPatches counts dirty tape entries re-lowered incrementally
	// across proposals, and PlanFusedNodes counts nodes lowered to a
	// fused form (constant-folded whole or an immediate-operand kernel
	// variant). PlanSkipped counts live proposal nodes the value
	// cutoff did not run. All five stay at zero unless the compiled
	// plan engine is in use (the default; see
	// search.Options.InterpEval).
	PlanCompiles   *Counter
	PlanCacheHits  *Counter
	PlanPatches    *Counter
	PlanFusedNodes *Counter
	PlanSkipped    *Counter
	// PruneChecked and PruneRejected count abstract-interpretation
	// prune probes and the proposals they rejected before evaluation;
	// PruneUnsound counts rejections the concrete re-check disproved
	// (always zero unless the abstract domains are unsound). All three
	// stay at zero without Options.Prune.
	PruneChecked  *Counter
	PruneRejected *Counter
	PruneUnsound  *Counter
	// Tracer receives plateau_enter/plateau_exit events and — when
	// SampleCosts is set — a search_cost trajectory point per flush.
	Tracer *Tracer
	// SampleCosts enables sampled cost-trajectory events.
	SampleCosts bool
	// ID identifies the search within trace events; factories stamp
	// it per search via WithID.
	ID uint64
}

// WithID returns a copy of h with the per-search ID set (nil-safe:
// returns nil for a nil receiver, keeping factories branch-free).
func (h *SearchHooks) WithID(id uint64) *SearchHooks {
	if h == nil {
		return nil
	}
	c := *h
	c.ID = id
	return &c
}

// ProposedFor returns the proposal counter for a move ordinal, or nil.
func (h *SearchHooks) ProposedFor(move int) *Counter {
	if h == nil || move < 0 || move >= len(h.Proposed) {
		return nil
	}
	return h.Proposed[move]
}

// AcceptedFor returns the acceptance counter for a move ordinal, or nil.
func (h *SearchHooks) AcceptedFor(move int) *Counter {
	if h == nil || move < 0 || move >= len(h.Accepted) {
		return nil
	}
	return h.Accepted[move]
}

// RestartHooks instruments one restart-strategy execution. As with
// SearchHooks, every field is optional and a nil *RestartHooks
// disables instrumentation.
type RestartHooks struct {
	// Restarts counts searches started by the strategy (the first
	// search counts: it is restart zero). The handle carries the
	// strategy label, e.g. stochsyn_restarts_total{strategy="luby"}.
	Restarts *Counter
	// CutoffIters observes the iteration grant handed to a search
	// each time the strategy (re)schedules one — cutoff lengths for
	// the sequential strategies, per-visit grants for the tree.
	CutoffIters *Histogram
	// Swaps counts adaptive tree promotions.
	Swaps *Counter
	// Passes counts doubling passes of the tree strategies.
	Passes *Counter
	// SpeculatedIters and UsefulIters split the concurrent tree
	// executor's spent budget (from ExecStats): iterations the
	// sequential oracle would not have run vs. those it would.
	SpeculatedIters *Counter
	UsefulIters     *Counter
	// Tracer receives restart_fire, tree_pass, and tree_promote
	// events.
	Tracer *Tracer
}
