package core

import (
	"bytes"
	"testing"

	"mcbnet/internal/mcb"
	"mcbnet/internal/partial"
)

// countingNode counts the idle calls (Idle or IdleN, each one submission to
// the engine) and idle cycles a program issues through it, and its traffic
// ops (each of which may end an idle run).
type countingNode struct {
	mcb.Node
	calls, cycles, ops int
}

func (c *countingNode) Write(ch int, m mcb.Message) { c.ops++; c.Node.Write(ch, m) }

func (c *countingNode) Read(ch int) (mcb.Message, bool) { c.ops++; return c.Node.Read(ch) }

func (c *countingNode) WriteRead(w int, m mcb.Message, r int) (mcb.Message, bool) {
	c.ops++
	return c.Node.WriteRead(w, m, r)
}

func (c *countingNode) Idle() { c.calls++; c.cycles++; c.Node.Idle() }

func (c *countingNode) IdleN(n int) {
	if n > 0 {
		c.calls++
		c.cycles += n
	}
	c.Node.IdleN(n)
}

// perCycleNode issues every idle cycle as its own Idle call: the op stream
// the drivers produced before they coalesced idle runs.
type perCycleNode struct{ mcb.Node }

func (n perCycleNode) IdleN(k int) {
	for i := 0; i < k; i++ {
		n.Node.Idle()
	}
}

// TestIdleRunsCoalesced pins the idle-run coalescing of the Partial-Sums and
// Columnsort drivers: at p=1024, k=16 a processor issues O(levels) idle
// calls per primitive instead of one per idle cycle (Θ(p/k) per tree
// level), and the Report is byte-identical to the per-cycle op stream's, on
// both engines.
func TestIdleRunsCoalesced(t *testing.T) {
	const p, k, levels = 1024, 16, 10
	type counts struct{ sums, total, sort countingNode }
	run := func(engine mcb.EngineMode, wrap func(mcb.Node) mcb.Node) ([]counts, []byte) {
		got := make([]counts, p)
		res, err := mcb.RunUniform(mcb.Config{P: p, K: k, Engine: engine}, func(pr mcb.Node) {
			id := pr.ID()
			pr = wrap(pr)
			c := &got[id]
			c.sums.Node, c.total.Node, c.sort.Node = pr, pr, pr
			before, _, _ := partial.Sums(&c.sums, int64(id%7), partial.Sum)
			if id == 0 && before != 0 {
				pr.Abortf("prefix at 0 = %d", before)
			}
			if tot := partial.Total(&c.total, 1, partial.Sum); tot != p {
				pr.Abortf("total = %d, want %d", tot, p)
			}
			out := gatherSort(&c.sort, makeElems(id, []int64{int64((id * 7919) % p)}), nil, nil)
			// Every value 0..p-1 occurs once; the descending sort hands
			// processor i rank i.
			if out[0].V != int64(p-1-id) {
				pr.Abortf("sorted[%d] = %d", id, out[0].V)
			}
		})
		if err != nil {
			t.Fatalf("engine=%s: %v", engine, err)
		}
		rep, err := mcb.NewReport(mcb.Config{P: p, K: k}, &res.Stats).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return got, rep
	}
	plain := func(n mcb.Node) mcb.Node { return n }
	coalesced, ref := run(mcb.EngineSharded, plain)
	// Per-primitive bounds in tree levels: Partial-Sums makes one bottom-up
	// and one top-down pass plus the neighbour exchange, Total one pass, and
	// gatherSort composes both with six Columnsort stages. One idle call per
	// idle cycle would instead cost ~2p/k per pass.
	const L = levels + 1
	maxIdle := 0
	for id, c := range coalesced {
		for _, s := range []struct {
			name  string
			n     countingNode
			bound int
		}{{"partial.Sums", c.sums, 2 * L}, {"partial.Total", c.total, L}, {"gatherSort", c.sort, 5 * L}} {
			if s.n.calls > s.bound {
				t.Fatalf("processor %d: %s issued %d idle calls (%d idle cycles, %d traffic ops), want <= %d",
					id, s.name, s.n.calls, s.n.cycles, s.n.ops, s.bound)
			}
			maxIdle = max(maxIdle, s.n.cycles)
		}
	}
	if maxIdle < 10*5*L {
		t.Fatalf("no processor idled more than %d cycles: the bounds prove nothing", maxIdle)
	}

	for _, v := range []struct {
		name   string
		engine mcb.EngineMode
		wrap   func(mcb.Node) mcb.Node
	}{
		{"sharded per-cycle", mcb.EngineSharded, func(n mcb.Node) mcb.Node { return perCycleNode{n} }},
		{"goroutine", mcb.EngineGoroutine, plain},
	} {
		if _, rep := run(v.engine, v.wrap); !bytes.Equal(rep, ref) {
			t.Fatalf("%s report diverges from the coalesced sharded run:\n%s\n--- want ---\n%s", v.name, rep, ref)
		}
	}
}
