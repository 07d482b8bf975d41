package mutate

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

func testSuite(numInputs int) *testcase.Suite {
	rng := rand.New(rand.NewPCG(11, 12))
	f := func(in []uint64) uint64 {
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		return v
	}
	return testcase.Generate(f, numInputs, 16, rng)
}

func TestMovesListed(t *testing.T) {
	m := New(prog.FullSet, nil, false)
	if len(m.Moves()) != 3 {
		t.Errorf("baseline mutator has %d moves, want 3", len(m.Moves()))
	}
	mr := New(prog.ModelSet, testSuite(1), true)
	if len(mr.Moves()) != 4 {
		t.Errorf("redundancy mutator has %d moves, want 4", len(mr.Moves()))
	}
}

func TestNewPanicsWithoutSuite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for redundancy without suite")
		}
	}()
	New(prog.ModelSet, nil, true)
}

func TestMoveStrings(t *testing.T) {
	names := map[Move]string{
		MoveInstruction: "instruction",
		MoveOpcode:      "opcode",
		MoveOperand:     "operand",
		MoveRedundancy:  "redundancy",
	}
	for mv, want := range names {
		if mv.String() != want {
			t.Errorf("Move(%d).String() = %q, want %q", mv, mv.String(), want)
		}
	}
}

// applyN applies n random moves, keeping each valid one the way an
// accepting commit does: the move's dead nodes must be clean (checkMove
// panics otherwise), and the collected program must validate.
func applyN(t *testing.T, m *Mutator, p *prog.Program, rng *rand.Rand, n int) (valid, invalid int) {
	t.Helper()
	for i := 0; i < n; i++ {
		before := p.Clone()
		mv, ok := m.Apply(p, rng)
		if !ok {
			invalid++
			if !p.Equal(before) {
				t.Fatalf("invalid %s move modified the program", mv)
			}
			continue
		}
		valid++
		checkMove(before, p, mv)
		p.GC()
		if err := p.Validate(); err != nil {
			t.Fatalf("%s move produced invalid program: %v\nbefore: %s\nafter:  %s",
				mv, err, before, p)
		}
	}
	return valid, invalid
}

func TestMovesPreserveInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	m := New(prog.FullSet, nil, false)
	p := prog.NewZero(2)
	valid, _ := applyN(t, m, p, rng, 5000)
	if valid == 0 {
		t.Error("no valid moves in 5000 proposals")
	}
}

func TestModelMovesPreserveInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	suite := testSuite(1)
	m := New(prog.ModelSet, suite, true)
	p := prog.NewZero(1)
	valid, _ := applyN(t, m, p, rng, 5000)
	if valid == 0 {
		t.Error("no valid moves in 5000 proposals")
	}
}

func TestSizeLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	m := New(prog.FullSet, nil, false)
	p := prog.NewZero(1)
	for i := 0; i < 20000; i++ {
		m.Apply(p, rng)
		if p.BodyLen() > prog.MaxBody {
			t.Fatalf("proposal grew to %d body nodes", p.BodyLen())
		}
		p.GC()
		if p.BodyLen() > prog.MaxBody {
			t.Fatalf("program grew to %d body nodes", p.BodyLen())
		}
	}
}

func TestInstructionMoveCanReachInputs(t *testing.T) {
	// Starting from the zero program, some instruction move must
	// eventually wire an input into the graph; otherwise synthesis of
	// non-constant functions would be impossible.
	rng := rand.New(rand.NewPCG(4, 4))
	m := New(prog.FullSet, nil, false)
	p := prog.NewZero(1)
	for i := 0; i < 10000; i++ {
		m.Apply(p, rng)
		p.GC()
		if p.Output([]uint64{5}) != p.Output([]uint64{1000000}) {
			return // program depends on the input
		}
	}
	t.Error("10000 moves never produced an input-dependent program")
}

func TestOpcodeMoveKeepsArity(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	m := New(prog.FullSet, nil, false)
	p := prog.MustParse("addq(x, 1)", 1)
	for i := 0; i < 500; i++ {
		q := p.Clone()
		if m.ApplyMove(q, MoveOpcode, rng) {
			for _, nd := range q.Nodes {
				if nd.Op.IsInstruction() && nd.Op.Arity() != 2 {
					t.Fatalf("opcode move changed arity: %s", q)
				}
			}
		}
	}
}

func TestOpcodeMoveInvalidOnConstProgram(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	m := New(prog.FullSet, nil, false)
	p := prog.NewZero(1)
	if m.ApplyMove(p, MoveOpcode, rng) {
		t.Error("opcode move succeeded with no instruction nodes")
	}
}

func TestOperandMoveKeepsAcyclicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	m := New(prog.FullSet, nil, false)
	p := prog.MustParse("addq(notq(x), orq(x, 1))", 1)
	for i := 0; i < 2000; i++ {
		m.ApplyMove(p, MoveOperand, rng)
		p.GC()
		if err := p.Validate(); err != nil {
			t.Fatalf("operand move broke invariants: %v", err)
		}
	}
}

func TestRedundancyMergesEquivalentNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	suite := testSuite(1)
	m := New(prog.ModelSet, suite, true)
	// or(x,x) and and(x,x) both compute x: the redundancy move should
	// eventually merge them.
	p := prog.MustParse("xor(or(x, x), and(x, x))", 1)
	startLen := p.BodyLen()
	merged := false
	for i := 0; i < 2000 && !merged; i++ {
		q := p.Clone()
		if m.ApplyMove(q, MoveRedundancy, rng) {
			q.GC()
			if err := q.Validate(); err != nil {
				t.Fatalf("redundancy move broke invariants: %v", err)
			}
			if q.BodyLen() < startLen {
				merged = true
			}
		}
	}
	if !merged {
		t.Error("redundancy move never merged value-equal nodes")
	}
}

func TestPropertyLongWalksStayValid(t *testing.T) {
	suite := testSuite(2)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1001))
		m := New(prog.ModelSet, suite, true)
		p := prog.NewZero(2)
		for i := 0; i < 300; i++ {
			m.Apply(p, rng)
			p.GC()
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMoveDistributionCoversAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	m := New(prog.ModelSet, testSuite(1), true)
	p := prog.MustParse("xor(or(x, x), and(x, x))", 1)
	seen := map[Move]int{}
	for i := 0; i < 3000; i++ {
		q := p.Clone()
		mv, _ := m.Apply(q, rng)
		seen[mv]++
	}
	for _, mv := range m.Moves() {
		if seen[mv] == 0 {
			t.Errorf("move %s never chosen in 3000 proposals", mv)
		}
	}
}

func TestSetWeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	m := New(prog.FullSet, nil, false)
	m.SetWeights(map[Move]float64{
		MoveInstruction: 8,
		MoveOpcode:      1,
		MoveOperand:     1,
	})
	p := prog.MustParse("addq(notq(x), orq(x, 1))", 1)
	counts := map[Move]int{}
	for i := 0; i < 5000; i++ {
		q := p.Clone()
		mv, _ := m.Apply(q, rng)
		counts[mv]++
	}
	// Instruction should dominate roughly 8:1:1.
	if counts[MoveInstruction] < 3200 || counts[MoveInstruction] > 4800 {
		t.Errorf("instruction chosen %d/5000, want ~4000", counts[MoveInstruction])
	}
	if counts[MoveOpcode] == 0 || counts[MoveOperand] == 0 {
		t.Error("weighted moves starved nonzero-weight entries")
	}
}

func TestSetWeightsZeroesOutMoves(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	m := New(prog.FullSet, nil, false)
	m.SetWeights(map[Move]float64{MoveOperand: 1})
	p := prog.MustParse("addq(notq(x), orq(x, 1))", 1)
	for i := 0; i < 500; i++ {
		q := p.Clone()
		if mv, _ := m.Apply(q, rng); mv != MoveOperand {
			t.Fatalf("zero-weight move %s chosen", mv)
		}
	}
}

func TestSetWeightsPanicsAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for all-zero weights")
		}
	}()
	New(prog.FullSet, nil, false).SetWeights(map[Move]float64{})
}
