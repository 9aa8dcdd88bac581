package core

import (
	"sync"
	"sync/atomic"

	"rasengan/internal/bitvec"
	"rasengan/internal/quantum"
)

// excursionStateBudget caps the basis states one executor's derived spaces
// may hold in total. Each derived state costs its bitvec key, an index
// entry, a partner slot per distinct operator and one slot per memoized
// move map out of its space; past the budget, trajectories that need a new
// space finish on the map engine instead, with the same floats.
const excursionStateBudget = 1 << 14

// excursions is the compiled engine's memo of the spaces noise moves a
// trajectory into. A noise branch that permutes the basis (X, Y, the
// amplitude-damping jump) maps a state of one compiled closure to basis
// states outside it; their closure under the same schedule is compiled
// once, with the per-(space, qubit, move) index map into it, and shared
// read-only by every clone of the executor. So are the homes of segment
// seeds outside the init closure (readout-flipped outcomes that survive
// purification, or every outcome without it). Which space holds a state
// never changes a float: every space is closed under the schedule and
// every reduction runs in ascending state order.
type excursions struct {
	root *spaceNode // the init closure

	mu     sync.RWMutex
	nodes  []*spaceNode // derived spaces, in creation order
	states int          // basis states held by nodes
	budget int          // cap on states (excursionStateBudget)
	seeds  map[bitvec.Vec]seedHome
}

// spaceNode is one compiled space of the memo.
type spaceNode struct {
	space *quantum.CompiledSpace
	// home maps each state to its index in the init closure, -1 outside
	// it; nil for the init closure itself.
	home []int32
	// moves[2q] memoizes the X/Y map out of this space on qubit q and
	// moves[2q+1] the decay map; each is loaded lock-free once stored.
	moves []atomic.Pointer[excursion]
}

// excursion is a memoized move: the space it lands in and the index map
// into it, or to == nil when no compiled space within budget holds the
// images.
type excursion struct {
	to  *spaceNode
	idx []int32
}

// seedHome is where a segment seed outside the init closure starts: a
// space and index, or node == nil for the map engine.
type seedHome struct {
	node *spaceNode
	idx  int32
}

func newExcursions(init *quantum.CompiledSpace) *excursions {
	return &excursions{
		root:   &spaceNode{space: init, moves: make([]atomic.Pointer[excursion], 2*init.NumQubits())},
		budget: excursionStateBudget,
		seeds:  map[bitvec.Vec]seedHome{},
	}
}

// homeOf returns the init-closure index of state i of node n, -1 outside it.
func (n *spaceNode) homeOf(i int32) int32 {
	if n.home == nil {
		return i
	}
	return n.home[i]
}

// move returns the memoized move m on qubit q out of from, compiling its
// target on first use.
func (x *excursions) move(from *spaceNode, q int, m quantum.Move) *excursion {
	slot := &from.moves[2*q]
	if m == quantum.MoveDecay {
		slot = &from.moves[2*q+1]
	}
	if ex := slot.Load(); ex != nil {
		return ex
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if ex := slot.Load(); ex != nil {
		return ex
	}
	ex := &excursion{}
	if to := x.closure(from.space.MoveImages(q, m)); to != nil {
		ex.to = to
		ex.idx, _ = from.space.MoveIndex(q, m, to.space) // to holds every image
	}
	slot.Store(ex)
	return ex
}

// seed returns the start of a trajectory seeded at s, a state outside the
// init closure.
func (x *excursions) seed(s bitvec.Vec) seedHome {
	x.mu.RLock()
	h, ok := x.seeds[s]
	x.mu.RUnlock()
	if ok {
		return h
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if h, ok := x.seeds[s]; ok {
		return h
	}
	if h.node = x.closure([]bitvec.Vec{s}); h.node != nil {
		h.idx, _ = h.node.space.IndexOf(s)
	}
	x.seeds[s] = h
	return h
}

// closure returns a space holding every state of seeds: the first known
// space that does, else their newly compiled closure, or nil when that
// would exceed the budget. The caller holds x.mu.
func (x *excursions) closure(seeds []bitvec.Vec) *spaceNode {
	if holdsAll(x.root.space, seeds) {
		return x.root
	}
	for _, n := range x.nodes {
		if holdsAll(n.space, seeds) {
			return n
		}
	}
	left := x.budget - x.states
	if left <= 0 {
		return nil
	}
	cs, err := x.root.space.Derive(seeds, left)
	if err != nil {
		return nil
	}
	n := &spaceNode{space: cs, home: make([]int32, cs.Size()), moves: make([]atomic.Pointer[excursion], 2*cs.NumQubits())}
	for i := range n.home {
		n.home[i] = -1
		if j, ok := x.root.space.IndexOf(cs.StateAt(int32(i))); ok {
			n.home[i] = j
		}
	}
	x.nodes = append(x.nodes, n)
	x.states += cs.Size()
	return n
}

func holdsAll(cs *quantum.CompiledSpace, xs []bitvec.Vec) bool {
	for _, s := range xs {
		if _, ok := cs.IndexOf(s); !ok {
			return false
		}
	}
	return true
}
