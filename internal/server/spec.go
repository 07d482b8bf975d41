// Package server implements synthd, the synthesis-as-a-service
// subsystem: a JSON-over-HTTP API for submitting synthesis jobs, a
// bounded job queue feeding a worker-pool scheduler, per-job
// cancellation via context plumbing down to the search inner loop, an
// LRU result cache keyed by a canonical (problem, strategy, seed)
// hash, and graceful drain-with-deadline shutdown. cmd/synthd wraps
// it in a daemon; internal/server/client is the matching Go client.
package server

import (
	"errors"
	"fmt"

	"stochsyn"
	"stochsyn/internal/prog"
	"stochsyn/internal/sygusif"
)

// ErrBadSpec tags job-spec level errors (no problem source given, two
// problem sources given, malformed SyGuS text, ...). The HTTP layer
// maps it — along with stochsyn.ErrInvalidOptions and
// stochsyn.ErrInvalidProblem — to 400 Bad Request.
var ErrBadSpec = errors.New("bad job spec")

// MaxCases caps problem.num_cases, the size of the suite the server
// samples for an expr problem. It is about as many cases as a
// MaxSpecBytes body of explicit examples can carry, so an expr spec
// cannot claim more suite memory than an examples spec; Build refuses
// larger values before allocating anything.
const MaxCases = 1 << 15

// MaxBudget caps options.budget, the iterations a job may claim. At
// the search loop's throughput (about a million iterations per second
// per core) it is well over half an hour of CPU; Build refuses larger
// values before the job is queued.
const MaxBudget = 1 << 31

// JobSpec is the body of POST /v1/jobs: what to synthesize, how, and
// under which budgets.
type JobSpec struct {
	// Problem names the synthesis problem; exactly one source must be
	// set.
	Problem ProblemSpec `json:"problem"`
	// Options configures the search; zero values select the library
	// defaults (adaptive strategy, Hamming cost, Beta 1, full
	// dialect, 10M iterations, seed 1).
	Options OptionsSpec `json:"options"`
	// TimeoutMS, when positive, bounds the job's wall-clock run time;
	// a job past its deadline finishes with status "cancelled".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ProblemSpec describes a synthesis problem. Exactly one of Expr,
// Examples, or Sygus must be set.
type ProblemSpec struct {
	// Expr is a reference expression in the library's program
	// notation (e.g. "andq(x, subq(x, 1))"); the server samples
	// NumCases test cases from it, deterministically in CaseSeed.
	Expr string `json:"expr,omitempty"`
	// Inputs is the input arity (required with Expr).
	Inputs int `json:"inputs,omitempty"`
	// NumCases is the number of sampled cases (default 100, with Expr).
	NumCases int `json:"num_cases,omitempty"`
	// CaseSeed seeds case generation (default 1, with Expr).
	CaseSeed uint64 `json:"case_seed,omitempty"`

	// Examples lists explicit input/output examples.
	Examples []Example `json:"examples,omitempty"`

	// Sygus is the text of a SyGuS-IF problem (the PBE bitvector
	// subset, as accepted by synth -sl).
	Sygus string `json:"sygus,omitempty"`
}

// Example is one explicit input/output example.
type Example struct {
	Inputs []uint64 `json:"inputs"`
	Output uint64   `json:"output"`
}

// OptionsSpec mirrors stochsyn.Options field for field in JSON form.
type OptionsSpec struct {
	Cost     string  `json:"cost,omitempty"`
	Beta     float64 `json:"beta,omitempty"`
	Greedy   bool    `json:"greedy,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Budget   int64   `json:"budget,omitempty"`
	Dialect  string  `json:"dialect,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Workers requests per-job parallelism for the doubling-tree
	// executor; the server caps it by its worker budget (see
	// Config.WorkerBudget). Results are bit-identical regardless of
	// the cap, so caching stays sound.
	Workers int `json:"workers,omitempty"`
	// EqSat enables rewrite-aware restarts (stochsyn.Options.EqSat).
	// Unlike Workers it deliberately changes the search trajectory, so
	// it participates in every cache key.
	EqSat bool `json:"eqsat,omitempty"`
	// Prune enables abstract-interpretation proposal pruning
	// (stochsyn.Options.Prune). Like EqSat it changes the search
	// trajectory (pruned proposals are never evaluated), so it
	// participates in every cache key.
	Prune bool `json:"prune,omitempty"`
}

// options converts the wire form to stochsyn.Options.
func (s OptionsSpec) options() stochsyn.Options {
	return stochsyn.Options{
		Cost:     stochsyn.CostFunction(s.Cost),
		Beta:     s.Beta,
		Greedy:   s.Greedy,
		Strategy: s.Strategy,
		Budget:   s.Budget,
		Dialect:  stochsyn.Dialect(s.Dialect),
		Seed:     s.Seed,
		Workers:  s.Workers,
		EqSat:    s.EqSat,
		Prune:    s.Prune,
	}
}

// Build resolves the spec into a problem and normalized options,
// validating both. Errors wrap ErrBadSpec, stochsyn.ErrInvalidProblem,
// or stochsyn.ErrInvalidOptions.
func (s JobSpec) Build() (*stochsyn.Problem, stochsyn.Options, error) {
	if s.Options.Budget > MaxBudget {
		return nil, stochsyn.Options{}, fmt.Errorf("%w: options.budget %d above %d", ErrBadSpec, s.Options.Budget, MaxBudget)
	}
	p, err := s.Problem.build()
	if err != nil {
		return nil, stochsyn.Options{}, err
	}
	opts, err := s.Options.options().Normalized()
	if err != nil {
		return nil, stochsyn.Options{}, err
	}
	if s.TimeoutMS < 0 {
		return nil, stochsyn.Options{}, fmt.Errorf("%w: negative timeout_ms %d", ErrBadSpec, s.TimeoutMS)
	}
	return p, opts, nil
}

func (s ProblemSpec) build() (*stochsyn.Problem, error) {
	sources := 0
	for _, set := range []bool{s.Expr != "", len(s.Examples) > 0, s.Sygus != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: exactly one of problem.expr, problem.examples, problem.sygus is required", ErrBadSpec)
	}
	switch {
	case s.Expr != "":
		if s.Inputs <= 0 {
			return nil, fmt.Errorf("%w: problem.inputs must be positive with problem.expr", ErrBadSpec)
		}
		if s.NumCases < 0 || s.NumCases > MaxCases {
			return nil, fmt.Errorf("%w: problem.num_cases %d outside [0, %d]", ErrBadSpec, s.NumCases, MaxCases)
		}
		ref, err := prog.Parse(s.Expr, s.Inputs)
		if err != nil {
			return nil, fmt.Errorf("%w: bad problem.expr: %v", ErrBadSpec, err)
		}
		numCases := s.NumCases
		if numCases == 0 {
			numCases = 100
		}
		seed := s.CaseSeed
		if seed == 0 {
			seed = 1
		}
		return stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return ref.Output(in) }, s.Inputs, numCases, seed)
	case len(s.Examples) > 0:
		if s.NumCases != 0 || s.CaseSeed != 0 {
			return nil, fmt.Errorf("%w: num_cases/case_seed apply only to expr problems", ErrBadSpec)
		}
		inputs := s.Inputs
		if inputs == 0 {
			inputs = len(s.Examples[0].Inputs)
		}
		cases := make([]stochsyn.Case, len(s.Examples))
		for i, e := range s.Examples {
			cases[i] = stochsyn.Case{Inputs: e.Inputs, Output: e.Output}
		}
		return stochsyn.NewProblem(inputs, cases)
	default:
		p, err := sygusif.Parse(s.Sygus)
		if err != nil {
			return nil, fmt.Errorf("%w: bad problem.sygus: %v", ErrBadSpec, err)
		}
		cases := make([]stochsyn.Case, 0, p.Suite.Len())
		for _, c := range p.Suite.Cases {
			cases = append(cases, stochsyn.Case{Inputs: c.Inputs, Output: c.Output})
		}
		return stochsyn.NewProblem(p.Suite.NumInputs, cases)
	}
}
