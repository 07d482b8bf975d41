package prog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the textual program notation produced by String:
//
//	program  := (binding ";")* expr
//	binding  := ident "=" expr
//	expr     := input | constant | op "(" expr ("," expr)* ")"
//
// Inputs are named x, y, z, w, in4, in5, ...; constants are signed
// decimal or 0x-prefixed hex; ops are the mnemonics of the opcode
// table. numInputs fixes the input arity of the resulting program
// (the expression may use fewer inputs but not more).
//
// Bindings introduce sharing: every reference to a bound name reuses
// the same node. Constants are interned — every occurrence of a value
// reuses one node — because String writes a shared constant inline at
// each use. Unshared instruction subexpressions always create fresh
// nodes, so Parse(p.String()) succeeds for every valid p and
// reproduces its dataflow graph up to node order and the merging of
// equal constants.
func Parse(src string, numInputs int) (*Program, error) {
	if numInputs < 0 || numInputs > MaxInputs {
		return nil, fmt.Errorf("prog: input count %d out of range [0, %d]", numInputs, MaxInputs)
	}
	pr := &parser{src: src, prog: newBase(numInputs), env: map[string]int32{}, consts: map[uint64]int32{}}
	parts := splitTop(src, ';')
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("prog: empty statement %d", i+1)
		}
		last := i == len(parts)-1
		if eq := topIndex(part, '='); eq >= 0 {
			if last {
				return nil, fmt.Errorf("prog: final statement must be an expression, got binding %q", part)
			}
			name := strings.TrimSpace(part[:eq])
			if !isIdent(name) {
				return nil, fmt.Errorf("prog: invalid binding name %q", name)
			}
			if inputIndex(name) >= 0 {
				return nil, fmt.Errorf("prog: binding name %q collides with input name", name)
			}
			if _, dup := pr.env[name]; dup {
				return nil, fmt.Errorf("prog: duplicate binding %q", name)
			}
			idx, err := pr.expr(strings.TrimSpace(part[eq+1:]))
			if err != nil {
				return nil, err
			}
			pr.env[name] = idx
		} else {
			if !last {
				return nil, fmt.Errorf("prog: statement %d is not a binding", i+1)
			}
			idx, err := pr.expr(part)
			if err != nil {
				return nil, err
			}
			pr.prog.Root = idx
		}
	}
	pr.prog.GC() // unused bindings become dead nodes; drop them
	if body := pr.prog.BodyLen(); body > MaxBody {
		return nil, fmt.Errorf("prog: program has %d body nodes, limit is %d", body, MaxBody)
	}
	if err := pr.prog.Validate(); err != nil {
		return nil, err
	}
	return pr.prog, nil
}

// MustParse is Parse for tests and package-internal tables; it panics
// on error.
func MustParse(src string, numInputs int) *Program {
	p, err := Parse(src, numInputs)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src    string
	prog   *Program
	env    map[string]int32
	consts map[uint64]int32 // interned constant nodes by value
}

// expr parses one expression string and returns the index of the node
// representing it, appending nodes to the program as needed.
func (pr *parser) expr(s string) (int32, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("prog: empty expression")
	}
	// Operation application?
	if open := strings.IndexByte(s, '('); open >= 0 {
		name := strings.TrimSpace(s[:open])
		if !strings.HasSuffix(s, ")") {
			return 0, fmt.Errorf("prog: missing ')' in %q", s)
		}
		op, ok := OpByName(name)
		if !ok || !op.IsInstruction() {
			return 0, fmt.Errorf("prog: unknown operation %q", name)
		}
		argSrc := splitTop(s[open+1:len(s)-1], ',')
		if len(argSrc) == 1 && strings.TrimSpace(argSrc[0]) == "" {
			argSrc = nil
		}
		if len(argSrc) != op.Arity() {
			return 0, fmt.Errorf("prog: %s takes %d arguments, got %d", name, op.Arity(), len(argSrc))
		}
		nd := Node{Op: op}
		for a, as := range argSrc {
			idx, err := pr.expr(as)
			if err != nil {
				return 0, err
			}
			nd.Args[a] = idx
		}
		return pr.add(nd)
	}
	// Bound name?
	if idx, ok := pr.env[s]; ok {
		return idx, nil
	}
	// Input? Inputs resolve to their permanent nodes.
	if i := inputIndex(s); i >= 0 {
		if i >= pr.prog.NumInputs {
			return 0, fmt.Errorf("prog: input %s out of range (program has %d inputs)", s, pr.prog.NumInputs)
		}
		return int32(i), nil
	}
	// Constant?
	if v, err := parseConst(s); err == nil {
		if idx, ok := pr.consts[v]; ok {
			return idx, nil
		}
		idx, err := pr.add(Node{Op: OpConst, Val: v})
		pr.consts[v] = idx
		return idx, err
	}
	return 0, fmt.Errorf("prog: cannot parse %q", s)
}

func (pr *parser) add(nd Node) (int32, error) {
	if pr.prog.BodyLen() >= 48 { // hard stop against runaway inputs; real limit checked after GC
		return 0, fmt.Errorf("prog: expression too large")
	}
	pr.prog.Nodes = append(pr.prog.Nodes, nd)
	return int32(len(pr.prog.Nodes) - 1), nil
}

// parseConst accepts signed decimal and 0x hex (with optional sign).
func parseConst(s string) (uint64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

// isIdent reports whether s is a plausible identifier (letter followed
// by letters/digits).
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 && !unicode.IsLetter(r) {
			return false
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}

// splitTop splits s on sep occurrences that are not nested inside
// parentheses.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// topIndex returns the index of the first sep at parenthesis depth 0,
// or -1.
func topIndex(s string, sep byte) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}
