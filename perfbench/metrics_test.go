package main

import (
	"math"
	"testing"

	"stochsyn"
)

func TestPmeanWithFailedRuns(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	// Two of four solved: mean 15 plus (1/0.5 - 1) * cap.
	if got := pmean(vals, []bool{true, true, false, false}, 100); got != 115 {
		t.Errorf("half solved: pmean = %g, want 115", got)
	}
	if got := pmean(vals, []bool{true, true, true, true}, 100); got != 25 {
		t.Errorf("all solved: pmean = %g, want the plain mean 25", got)
	}
	if got := pmean(vals, []bool{false, false, false, false}, 100); !math.IsInf(got, 1) {
		t.Errorf("none solved: pmean = %g, want +Inf", got)
	}
	if got := pmean(nil, nil, 100); !math.IsNaN(got) {
		t.Errorf("no runs: pmean = %g, want NaN", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{100, 90, 90, 10},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		got := tailOf(seq(tc.n))
		if got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: tail = %+v, want p%g = %g with %d beyond", tc.n, got, tc.p, tc.value, tc.beyond)
		}
	}
	if got := tailOf(seq(19)); got.P != 0 || !math.IsNaN(got.Value) {
		t.Errorf("n=19: tail = %+v, want withheld", got)
	}
	if s := tailOf(seq(100)).String(); s != "90 (p90, 10 of 100 beyond)" {
		t.Errorf("tail prints %q", s)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 90},
		{ID: 4, Parent: 3, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "a", Start: 92, End: 95},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 5}, // parent not kept
		// Two children of one parent running in parallel cover 15, not 20.
		{ID: 7, Name: "par", Start: 200, End: 230},
		{ID: 8, Parent: 7, Name: "w", Start: 205, End: 215},
		{ID: 9, Parent: 7, Name: "w", Start: 210, End: 220},
	}
	st := selfTimes(spans)
	for name, want := range map[string][3]int64{ // count, total, self
		"root":   {1, 100, 100 - 30 - 40 - 3},
		"a":      {2, 33, 33},
		"b":      {1, 40, 30},
		"c":      {1, 10, 10},
		"orphan": {1, 5, 5},
		"par":    {1, 30, 15},
		"w":      {2, 20, 20},
	} {
		s := st[name]
		if s == nil || s.Count != want[0] || s.Total != want[1] || s.Self != want[2] {
			t.Errorf("%s: got %+v, want count=%d total=%d self=%d", name, s, want[0], want[1], want[2])
		}
	}
}

func TestCoverageUnionsOverlaps(t *testing.T) {
	spans := []span{
		{Start: 0, End: 10},
		{Start: 5, End: 20},
		{Start: 30, End: 40},
		{Start: 32, End: 35},
		{Start: 40, End: 41},
	}
	if got := coverage(spans); got != 20+11 {
		t.Errorf("coverage = %d, want 31", got)
	}
	if got := coverage(nil); got != 0 {
		t.Errorf("coverage of nothing = %d", got)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	if s := (ratio{3, 4}).String(); s != "0.7500 (3/4)" {
		t.Errorf("ratio prints %q", s)
	}
	if s := (ratio{0, 0}).String(); s != "n/a (0/0)" {
		t.Errorf("empty ratio prints %q", s)
	}
	if v := (ratio{0, 0}).Value(); !math.IsNaN(v) {
		t.Errorf("empty ratio value = %g, want NaN", v)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Errorf("p100 = %g", p)
	}
	if p := percentile(xs, 40); p != 2 {
		t.Errorf("p40 = %g", p)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean = %g", g)
	}
}

func TestBindLiteralsKeepsTheGraph(t *testing.T) {
	src := "a = subq(zextwq(0x412d21a239978836), sextbq(0x412d21a239978836)); addq(a, subq(x, -5))"
	want := "lit0 = 0x412d21a239978836; a = subq(zextwq(lit0), sextbq(lit0)); addq(a, subq(x, -5))"
	if got := bindLiterals(src); got != want {
		t.Fatalf("bindLiterals:\n got %s\nwant %s", got, want)
	}
	orig, err := stochsyn.ParseProgram(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := stochsyn.ParseProgram(want, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Size() != orig.Size()-1 {
		t.Errorf("bound program has %d nodes, want one fewer than %d", bound.Size(), orig.Size())
	}
	for _, x := range []uint64{0, 1, 7, 1 << 63, 0xdeadbeef} {
		a, _ := orig.Run(x)
		b, _ := bound.Run(x)
		if a != b {
			t.Errorf("x=%#x: %#x vs %#x", x, a, b)
		}
	}
}

func TestVerifyRejectsWrongPrograms(t *testing.T) {
	p, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if msg, _ := verify(p, true, "andq(x, subq(x, 1))", "andq(x, addq(x, -1))"); msg != "" {
		t.Errorf("right program rejected: %s", msg)
	}
	if msg, _ := verify(p, true, "x", "x"); msg == "" {
		t.Error("wrong program accepted")
	}
	if msg, _ := verify(p, true, "andq(x, ", ""); msg == "" {
		t.Error("unparseable program accepted")
	}
	if msg, _ := verify(p, false, "", ""); msg != "" {
		t.Errorf("unsolved result flagged: %s", msg)
	}
}
