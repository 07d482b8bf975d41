package prog_test

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
)

// TestStringParseRoundTripRandomPrograms is the printer/parser
// property over the search's own move distribution: for every valid
// program p, Parse(p.String()) must succeed, stay within p's size, and
// compute what p computes. Search programs share constant nodes, which
// the printer writes inline at every use, so this fails unless the
// parser merges repeated literals back into one node.
func TestStringParseRoundTripRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0x5eed))
	in := make([]uint64, prog.MaxInputs)
	for seed := uint64(1); seed <= 400; seed++ {
		numInputs := 1 + int(seed%3)
		p := mutate.RandomProgram(seed, numInputs, 10+int(seed%60))
		src := p.String()
		q, err := prog.Parse(src, numInputs)
		if err != nil {
			t.Fatalf("seed %d: printed form of a valid program does not parse: %v\n  %s", seed, err, src)
		}
		if q.BodyLen() > p.BodyLen() {
			t.Fatalf("seed %d: round trip grew %d -> %d body nodes\n  %s", seed, p.BodyLen(), q.BodyLen(), src)
		}
		for k := 0; k < 16; k++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			if k < 4 {
				for i := range in {
					in[i] = uint64(k) // small corner inputs
				}
			}
			if got, want := q.Output(in[:numInputs]), p.Output(in[:numInputs]); got != want {
				t.Fatalf("seed %d: round trip changed the output on %v: %#x -> %#x\n  %s",
					seed, in[:numInputs], want, got, src)
			}
		}
		// Printing is stable from the parsed form on.
		if r, err := prog.Parse(q.String(), numInputs); err != nil || r.String() != q.String() {
			t.Fatalf("seed %d: re-print unstable: %q -> %v / %v", seed, q.String(), r, err)
		}
	}
}
