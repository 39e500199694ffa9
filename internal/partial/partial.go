// Package partial implements the Partial-Sums algorithm of Section 7.1: the
// simulation of Vishkin's fetch-and-add tree machine on an MCB(p, k)
// network. Given a value a_i at each processor P_i and a commutative,
// associative operator ⊕, every processor learns the prefix sums
// a⊕_{i-1}, a⊕_i and a⊕_{i+1} in O(p/k + log k) cycles and O(p) messages.
//
// The full binary tree over (the next power of two of) p leaves is simulated
// level by level, bottom-up then top-down. A father node is simulated by the
// same processor that simulates its left son, so only right-son/father
// messages are sent: during the bottom-up phase the processor simulating
// node (l, 2j) writes channel (j-1 mod k)+1 in cycle ceil(j/k) of the level,
// read by the simulator of node (l+1, j); the top-down phase mirrors this.
// Virtual leaves introduced by rounding p up to a power of two never
// broadcast; their parents observe silence and substitute the identity.
//
// Every processor of the network must call the same entry point in the same
// cycle; all control flow depends only on globally known quantities (p, k),
// so the processors stay in lock-step.
package partial

import "mcbnet/internal/mcb"

// Op is a commutative and associative operator with identity, e.g. "+" or
// "max" — the ⊕ of the paper.
type Op struct {
	Name     string
	Identity int64
	Apply    func(a, b int64) int64
}

// Sum is integer addition.
var Sum = Op{Name: "sum", Identity: 0, Apply: func(a, b int64) int64 { return a + b }}

// Max is the maximum operator (identity MinInt64).
var Max = Op{Name: "max", Identity: -1 << 63, Apply: func(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}}

// Min is the minimum operator (identity MaxInt64).
var Min = Op{Name: "min", Identity: 1<<63 - 1, Apply: func(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}}

const tagPartial = 0x10

// levels returns the tree height for p leaves: smallest L with 2^L >= p.
func levels(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Sums computes the prefix sums of the values a_i under op. It returns
// before = a_1 ⊕ ... ⊕ a_{i-1} (op.Identity at P_1), at = before ⊕ a_i, and
// next = the inclusive prefix of P_{i+1} (op.Identity at the last
// processor). All p processors must call Sums in the same cycle.
func Sums(p mcb.Node, a int64, op Op) (before, at, next int64) {
	before = bottomUpTopDown(p, a, op)
	at = op.Apply(before, a)
	next = neighborFromRight(p, at)
	if p.ID() == p.P()-1 {
		next = op.Identity // no right neighbor
	}
	return before, at, next
}

// PhasedSums is Sums with phase accounting: the tree simulation is marked
// prefix+":tree" and the neighbor exchange prefix+":neighbor" (see
// mcb.Proc.Phase). Every processor marks; same-name markers coalesce.
func PhasedSums(p mcb.Node, a int64, op Op, prefix string) (before, at, next int64) {
	p.Phase(prefix + ":tree")
	before = bottomUpTopDown(p, a, op)
	at = op.Apply(before, a)
	p.Phase(prefix + ":neighbor")
	next = neighborFromRight(p, at)
	if p.ID() == p.P()-1 {
		next = op.Identity // no right neighbor
	}
	return before, at, next
}

// PhasedTotal is Total with phase accounting: the bottom-up tree simulation
// is marked prefix+":tree" and the root broadcast prefix+":broadcast".
func PhasedTotal(p mcb.Node, a int64, op Op, prefix string) int64 {
	P := p.P()
	if P == 1 {
		return a
	}
	p.Phase(prefix + ":tree")
	nodeVal := bottomUp(p, a, op)
	L := levels(P)
	p.Phase(prefix + ":broadcast")
	var total int64
	if p.ID() == 0 {
		total = nodeVal[L]
		p.Write(0, mcb.MsgX(tagPartial, total))
	} else {
		m, ok := p.Read(0)
		if !ok {
			p.Abortf("partial: missing total broadcast")
		}
		total = m.X
	}
	return total
}

// SumsNoNeighbor is Sums without the final neighbor exchange (saves p
// messages and ceil(p/k) cycles when a⊕_{i+1} is not needed).
func SumsNoNeighbor(p mcb.Node, a int64, op Op) (before, at int64) {
	before = bottomUpTopDown(p, a, op)
	return before, op.Apply(before, a)
}

// Total computes only the total sum a_1 ⊕ ... ⊕ a_p at every processor:
// the bottom-up phase followed by a single broadcast from P_1 (which
// simulates the root).
func Total(p mcb.Node, a int64, op Op) int64 {
	P := p.P()
	if P == 1 {
		return a
	}
	nodeVal := bottomUp(p, a, op)
	L := levels(P)
	// P_0 holds the root value nodeVal[L].
	var total int64
	if p.ID() == 0 {
		total = nodeVal[L]
		p.Write(0, mcb.MsgX(tagPartial, total))
	} else {
		m, ok := p.Read(0)
		if !ok {
			p.Abortf("partial: missing total broadcast")
		}
		total = m.X
	}
	return total
}

// bottomUp runs the bottom-up phase. It returns this processor's node values
// per level: nodeVal[l] is the ⊕ of the real leaves covered by the level-l
// node simulated by this processor (valid only for levels this processor
// simulates, i.e. while id % 2^l == 0).
func bottomUp(p mcb.Node, a int64, op Op) []int64 {
	P, K, id := p.P(), p.K(), p.ID()
	L := levels(P)
	q := mcb.IdleCoalescer{Node: p}
	nodeVal := make([]int64, L+1)
	nodeVal[0] = a
	for l := 0; l < L; l++ {
		span := 1 << (l + 1)        // leaves covered by a level-(l+1) node
		parents := ceilDiv(P, span) // parents with at least one real leaf
		batches := ceilDiv(parents, K)
		// Parent j0 covers leaves [j0*span, (j0+1)*span); its right child
		// simulator is leaf j0*span + span/2 and its own simulator is leaf
		// j0*span. Parent j0 communicates in batch j0/K on channel j0%K.
		for b := 0; b < batches; b++ {
			isRightChild := id%span == span/2 && id/span >= b*K && id/span < (b+1)*K
			isParent := id%span == 0 && id/span >= b*K && id/span < (b+1)*K
			switch {
			case isRightChild:
				q.Write(id/span%K, mcb.MsgX(tagPartial, nodeVal[l]))
			case isParent:
				m, ok := q.Read(id / span % K)
				r := op.Identity
				if ok {
					r = m.X
				}
				nodeVal[l+1] = op.Apply(nodeVal[l], r)
				continue
			default:
				q.Idle()
			}
		}
	}
	q.Flush()
	return nodeVal
}

// bottomUpTopDown runs both phases and returns the exclusive prefix at this
// processor (the F ⊕ at the leaf, before applying its own value).
func bottomUpTopDown(p mcb.Node, a int64, op Op) int64 {
	P, K, id := p.P(), p.K(), p.ID()
	if P == 1 {
		return op.Identity
	}
	nodeVal := bottomUp(p, a, op)
	L := levels(P)
	q := mcb.IdleCoalescer{Node: p}
	// f[l] is the prefix arriving from above at this processor's level-l
	// node. The root (level L, simulated by P_0) starts with the identity.
	f := op.Identity
	for l := L; l >= 1; l-- {
		span := 1 << l
		parents := ceilDiv(P, span)
		batches := ceilDiv(parents, K)
		for b := 0; b < batches; b++ {
			isParent := id%span == 0 && id/span >= b*K && id/span < (b+1)*K
			isRightChild := id%span == span/2 && id/span >= b*K && id/span < (b+1)*K
			switch {
			case isParent:
				// Send F ⊕ L to the right son; keep F for the left son
				// (same simulator). nodeVal[l-1] is the left child value.
				q.Write(id/span%K, mcb.MsgX(tagPartial, op.Apply(f, nodeVal[l-1])))
			case isRightChild:
				m, ok := q.Read(id / span % K)
				if !ok {
					p.Abortf("partial: missing top-down message at level %d", l)
				}
				f = m.X
			default:
				q.Idle()
			}
		}
	}
	q.Flush()
	return f
}

// neighborFromRight delivers each processor's value to its left neighbor:
// P_i learns v_{i+1}. Processor i (i > 0; P_0 has no left neighbor to serve)
// writes v on channel i mod k in batch floor(i/k); processor i-1 reads it,
// possibly in the same cycle as its own write. The last processor has no
// right neighbor and returns 0; the caller substitutes its own default.
// Costs ceil(p/k) cycles and p-1 messages.
func neighborFromRight(p mcb.Node, v int64) int64 {
	P, K, id := p.P(), p.K(), p.ID()
	if P == 1 {
		return 0
	}
	batches := ceilDiv(P, K)
	q := mcb.IdleCoalescer{Node: p}
	var got int64
	for b := 0; b < batches; b++ {
		writes := id >= b*K && id < (b+1)*K && id > 0
		reads := id+1 >= b*K && id+1 < (b+1)*K && id+1 < P
		switch {
		case writes && reads:
			m, ok := q.WriteRead(id%K, mcb.MsgX(tagPartial, v), (id+1)%K)
			if !ok {
				p.Abortf("partial: missing neighbor value")
			}
			got = m.X
		case writes:
			q.Write(id%K, mcb.MsgX(tagPartial, v))
		case reads:
			m, ok := q.Read((id + 1) % K)
			if !ok {
				p.Abortf("partial: missing neighbor value")
			}
			got = m.X
		default:
			q.Idle()
		}
	}
	q.Flush()
	return got
}
