package prog

import mathbits "math/bits"

// This file implements in-place program editing with undo: the core of
// the incremental evaluation engine. A Journal attached to a Program
// (BeginEdit) records, for every node the edit overwrites, the node's
// original contents the first time it is touched (copy-on-write), plus
// the original root and length. Rollback restores the pre-edit program
// exactly; the Commit-side consumer (plan.State) additionally uses
// the journal's dirty mask to know which value columns survived the
// edit unchanged.
//
// The journal replaces the search loop's previous double-buffered
// proposal scheme (scratch.CopyFrom(cur) + mutate + swap): a move now
// edits the current program directly and is reverted on rejection.
// Because the journal only observes writes — it never reorders them,
// and reverting reproduces the exact pre-edit node array — a
// journaled apply/rollback sequence is bit-identical to the old
// copy-and-discard sequence, which the oracle tables pin.
//
// Discipline: moves write; the accepting commit collects.
//
//   - All writes during an edit go through the journaling mutators
//     (SetOp, SetArg, SetRoot, AppendNode). An edit never renumbers
//     nodes, so a pre-edit node keeps its index for the whole edit and
//     every node at or past the pre-edit length was appended by it.
//   - GC never runs during an edit (it panics). A move that unhooks
//     nodes leaves them in place: they are clean (their content and
//     arguments are untouched) and unreachable from the root, so no
//     value consumer ever needs them. Most proposals are rejected, and
//     a rejected one is undone without ever having been compacted.
//   - The accepting commit ends the edit and collects once, re-homing
//     the engine's value columns through the compaction's index map
//     (CommitEdit). A committed program therefore has no dead code, and
//     every move starts from one.

// Journal records the undo and dirtiness information of one in-place
// edit. The zero value is ready for use; a single Journal is reused
// across iterations by the search loop (BeginEdit resets it in O(1)).
type Journal struct {
	saved    [MaxNodes]Node
	savedSet uint32 // bitmask over pre-edit indices with an entry in saved
	oldLen   int
	oldRoot  int32

	// dirty is the bitmask over node indices of nodes whose own
	// content the edit changed: pre-edit nodes that now differ from
	// their saved original, and appended nodes. It is exact: a write of
	// a node's current value (an operand re-pointed at its own target,
	// an opcode redrawn to itself) or a write later undone by its
	// inverse leaves the node clean. Nodes outside the mask hold the
	// same op, val, and argument indices as before the edit — but their
	// *values* may still change when a transitive argument is dirty, so
	// value consumers must close the mask over users (the engines'
	// Begin does exactly that).
	dirty uint32

	// savedOrder snapshots the program's topological-order cache at
	// BeginEdit. Rollback restores the exact pre-edit program, for
	// which the pre-edit order is again valid, so restoring the cache
	// saves a rebuild on every rejected proposal.
	savedOrder    [MaxNodes]int32
	savedOrderLen int
	savedOrderOK  bool

	// savedAritySum snapshots the arity-sum cache at BeginEdit;
	// Rollback restores it (the restored program is exactly the
	// pre-edit one, for which the snapshot is exact).
	savedAritySum   int
	savedAritySumOK bool
}

// BeginEdit attaches j to p and resets it. Subsequent journaling
// mutator calls and GC record into j until EndEdit or Rollback.
// Nested edits are not supported.
func (p *Program) BeginEdit(j *Journal) {
	if p.jr != nil {
		panic("prog: BeginEdit with an edit already active")
	}
	j.savedSet = 0
	j.dirty = 0
	j.oldLen = len(p.Nodes)
	j.oldRoot = p.Root
	j.savedOrderOK = p.orderOK
	if p.orderOK {
		j.savedOrderLen = copy(j.savedOrder[:], p.order)
	}
	j.savedAritySum = p.aritySum
	j.savedAritySumOK = p.aritySumOK
	p.jr = j
}

// EndEdit detaches the journal, keeping the edit's effects (dead nodes
// included: collecting them is the committer's job, see CommitEdit).
// The journal's dirty mask remains readable until the next BeginEdit.
func (p *Program) EndEdit() { p.jr = nil }

// CommitEdit ends the active edit, keeping its effects, and collects
// the nodes it left dead, moving the per-node value columns cols along
// with their nodes: the column of a surviving node i ends up at its new
// index. It reports whether the collection renumbered the program. The
// engines' Commit calls it once per accepted proposal; it is the only
// place the search loop compacts.
func (p *Program) CommitEdit(cols [][]uint64) bool {
	p.EndEdit()
	var remap [MaxNodes]int32
	n := len(p.Nodes)
	if p.collect(remap[:]) == 0 {
		return false
	}
	// The map is strictly increasing over survivors and never moves a
	// node up, so ascending swaps re-home every surviving column
	// without clobbering one still needed.
	for i, w := range remap[:n] {
		if w >= 0 && int(w) != i {
			cols[w], cols[i] = cols[i], cols[w]
		}
	}
	return true
}

// Journal returns the active edit journal, or nil outside an edit.
func (p *Program) Journal() *Journal { return p.jr }

// Mutated reports whether the program differs from its pre-edit
// state: some node is dirty (changed or appended), or the root moved.
// A move that returned invalid leaves the program untouched, and a
// structural no-op (a write of the current value) leaves it unchanged;
// both report false.
func (j *Journal) Mutated(p *Program) bool {
	return j.dirty != 0 || p.Root != j.oldRoot
}

// Dirty returns the bitmask of nodes whose own content the edit
// changed (changed by a write, or appended); see the dirty field.
func (j *Journal) Dirty() uint32 { return j.dirty }

// Rollback restores the exact pre-edit program and detaches the
// journal. An edit that wrote nothing returns at once, so rejected
// invalid proposals keep the order cache warm; one whose writes left
// the content unchanged still restores the order cache a SetArg
// dropped.
func (p *Program) Rollback() {
	j := p.jr
	if j == nil {
		panic("prog: Rollback without an active edit")
	}
	p.jr = nil
	if j.savedSet == 0 && !j.Mutated(p) {
		return
	}
	if p.usersOK {
		// The masks describe the current (end-of-edit) program — the
		// journaling mutators maintain them through every write — so
		// they can be repaired instead of rebuilt: remove every edge the
		// edit's surviving nodes own (appended nodes and overwritten
		// nodes), restore the nodes, then re-add the restored edges.
		// Untouched nodes' edges were never disturbed.
		for i := j.oldLen; i < len(p.Nodes); i++ {
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] &^= bit
			}
		}
		for mask := j.savedSet; mask != 0; {
			i := mathbits.TrailingZeros32(mask)
			mask &^= 1 << uint(i)
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] &^= bit
			}
		}
		// Keep the invariant that mask slots at or past the node count
		// are zero (AppendNode relies on it).
		for i := j.oldLen; i < len(p.Nodes); i++ {
			p.users[i] = 0
		}
	}
	p.Nodes = p.Nodes[:j.oldLen]
	for mask := j.savedSet; mask != 0; {
		i := mathbits.TrailingZeros32(mask)
		mask &^= 1 << uint(i)
		p.Nodes[i] = j.saved[i]
	}
	p.Root = j.oldRoot
	if p.usersOK {
		for mask := j.savedSet; mask != 0; {
			i := mathbits.TrailingZeros32(mask)
			mask &^= 1 << uint(i)
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] |= bit
			}
		}
	}
	if j.savedOrderOK {
		// The restored program is bit-identical to the pre-edit one, so
		// its cached topological order is valid again.
		p.order = append(p.order[:0], j.savedOrder[:j.savedOrderLen]...)
		p.orderOK = true
	} else {
		p.orderOK = false
	}
	p.aritySum = j.savedAritySum
	p.aritySumOK = j.savedAritySumOK
}

// noteWrite records an upcoming content write to node i: copy-on-write
// the original into the journal (appended nodes need no copy:
// truncation undoes them).
func (j *Journal) noteWrite(p *Program, i int32) {
	bit := uint32(1) << uint(i)
	if int(i) < j.oldLen && j.savedSet&bit == 0 {
		j.savedSet |= bit
		j.saved[i] = p.Nodes[i]
	}
}

// settle updates node i's dirty bit after a content write: an appended
// node is always dirty, a pre-edit node exactly when it now differs
// from its saved original.
func (j *Journal) settle(p *Program, i int32) {
	bit := uint32(1) << uint(i)
	if int(i) >= j.oldLen || p.Nodes[i] != j.saved[i] {
		j.dirty |= bit
	} else {
		j.dirty &^= bit
	}
}

// SetOp replaces node i's opcode. With an active journal the original
// node is saved and its dirty bit settled (see Journal.dirty). The
// cached topological order survives a same-arity swap (the edge set is
// unchanged) and is invalidated otherwise — a grown arity exposes an
// Args slot the cached order never accounted for. The cached user masks are
// maintained in place: an arity change adds or removes exactly node
// i's edges through the slots it exposes or hides.
func (p *Program) SetOp(i int32, op Op) {
	if p.Nodes[i].Op == op {
		return // a write of the current value changes nothing
	}
	if p.jr != nil {
		p.jr.noteWrite(p, i)
	}
	nd := &p.Nodes[i]
	oldAr, newAr := nd.Op.Arity(), op.Arity()
	if oldAr != newAr {
		p.orderOK = false
		p.aritySum += newAr - oldAr
		if p.usersOK {
			bit := uint32(1) << uint(i)
			for a := newAr; a < oldAr; a++ { // edges the shrink hides
				t := nd.Args[a]
				keep := false
				for s := 0; s < newAr; s++ {
					if nd.Args[s] == t {
						keep = true
					}
				}
				if !keep {
					p.users[t] &^= bit
				}
			}
			for a := oldAr; a < newAr; a++ { // edges the growth exposes
				p.users[nd.Args[a]] |= bit
			}
		}
	}
	nd.Op = op
	if p.jr != nil {
		p.jr.settle(p, i)
	}
}

// SetArg repoints argument slot a of node i at node v and invalidates
// the cached topological order (the edge set changed; the caller's
// acyclicity is its own responsibility). The cached user masks are
// maintained in place — node i stops using the old target (unless
// another live slot still reads it) and starts using v — so the
// mutation layer's per-proposal Ancestors queries never trigger a
// full mask rebuild.
func (p *Program) SetArg(i int32, a int, v int32) {
	if p.Nodes[i].Args[a] == v {
		return // a write of the current value changes nothing
	}
	if p.jr != nil {
		p.jr.noteWrite(p, i)
	}
	nd := &p.Nodes[i]
	old := nd.Args[a]
	nd.Args[a] = v
	if p.usersOK && a < nd.Op.Arity() {
		bit := uint32(1) << uint(i)
		keep := false
		for s := 0; s < nd.Op.Arity(); s++ {
			if s != a && nd.Args[s] == old {
				keep = true
			}
		}
		if !keep {
			p.users[old] &^= bit
		}
		p.users[v] |= bit
	}
	p.orderOK = false
	if p.jr != nil {
		p.jr.settle(p, i)
	}
}

// SetRoot repoints the program root at node v. The root slot carries
// no value column of its own, so nothing is marked dirty, and the
// cached topological order (which covers every node regardless of the
// root) stays valid.
func (p *Program) SetRoot(v int32) { p.Root = v }

// AppendNode appends a body node and returns its index, invalidating
// the cached topological order (the new node is not in it). Appended
// nodes are dirty by construction and are undone by truncation. The
// cached user masks are maintained in place: the new node's slot is
// cleared (it may hold bits from a node truncated at that index) and
// its own edges added.
func (p *Program) AppendNode(n Node) int32 {
	i := int32(len(p.Nodes))
	if p.jr != nil {
		p.jr.dirty |= 1 << uint(i)
	}
	p.Nodes = append(p.Nodes, n)
	p.aritySum += n.Op.Arity()
	if p.usersOK {
		// users[i] needs no clearing: mask slots past the node count are
		// zero by invariant (full rebuilds zero the whole array and
		// Rollback zeroes the slots it truncates). It may legitimately
		// be non-zero already — the instruction move appends nodes whose
		// arguments point forward at constants it appends right after.
		bit := uint32(1) << uint(i)
		for a := 0; a < n.Op.Arity(); a++ {
			p.users[n.Args[a]] |= bit
		}
	}
	p.orderOK = false
	return i
}
