package core

import (
	"mcbnet/internal/matrix"
	"mcbnet/internal/mcb"
	"mcbnet/internal/schedule"
	"mcbnet/internal/seq"
)

// gatherSort is the Columnsort implementation of Sections 5.2 and 7.2: after
// group formation, all elements of each group are collected into the group's
// representative (phase 0), Columnsort's phases 1-9 run among the
// representatives (local sorts cost no cycles; transformation phases follow
// collision-free schedules), and phase 10 redistributes the sorted elements,
// broadcasting each element twice so that processors whose target ranks span
// two columns can read both. Dummy padding cells are never broadcast;
// receivers observe silence. Total cost: O(n) messages and O(n/k + n_max)
// cycles.
func gatherSort(pr mcb.Node, mine []elem, rec *phaser, rep *Report) []elem {
	id := pr.ID()
	ni := len(mine)

	rec.mark("phase0a:formation")
	g := formGroups(pr, ni, pr.K())
	G := len(g.groups)
	m := g.paddedColLen()
	sh := matrix.Shape{M: m, K: G}
	if rep != nil && id == 0 {
		rep.Columns, rep.ColumnLen = G, m
	}

	isRep := id == g.groups[g.myGroup].rep
	myCol := g.myGroup

	rec.mark("phase0b:collection")
	col := collectColumn(pr, mine, g, m, isRep, myCol)

	// Phases 1-9 among representatives.
	runColumnsortPhases(pr, sh, isRep, myCol, col, rec)

	// Phase 10: redistribution.
	rec.mark("phase10:redistribution")
	return redistribute(pr, sh, g, isRep, myCol, col, ni)
}

// collectColumn is phase 0b: element collection into the representatives, m
// cycles. Group members broadcast their elements consecutively on the group
// channel, offset by their prefix within the group; the representative (the
// group's last member) listens and returns the gathered, dummy-padded
// column. Non-representatives return nil.
func collectColumn(pr mcb.Node, mine []elem, g *groupInfo, m int, isRep bool, myCol int) []cell {
	ni := len(mine)
	var col []cell
	if isRep {
		col = make([]cell, m)
		for i := range col {
			col[i].dummy = true
		}
		for j, e := range mine {
			col[g.myOffset+j] = cell{e: e}
		}
		pr.AccountAux(int64(2 * m)) // the gathered column (the paper's O(n/k) extra memory)
	}
	q := mcb.IdleCoalescer{Node: pr}
	for c := 0; c < m; c++ {
		switch {
		case !isRep && c >= g.myOffset && c < g.myOffset+ni:
			q.Write(myCol, mine[c-g.myOffset].msg(tagCollect))
		case isRep && c < g.myOffset:
			msg, ok := q.Read(myCol)
			if !ok {
				pr.Abortf("core: missing collection element %d", c)
			}
			col[c] = cell{e: elemFromMsg(msg)}
		default:
			q.Idle()
		}
	}
	q.Flush()
	return col
}

// runColumnsortPhases executes the 9-phase pipeline with columns held at
// representatives. Non-representatives idle through the transformation
// cycles (they recompute the same schedules from the shared shape).
func runColumnsortPhases(pr mcb.Node, sh matrix.Shape, isRep bool, myCol int, col []cell, rec *phaser) {
	if sh.K == 1 {
		if isRep {
			sortCells(col)
		}
		rec.mark("phases1-9:single-column-sort")
		return
	}
	for _, ph := range matrix.Phases() {
		switch ph.Kind {
		case matrix.PhaseSort:
			if isRep && !(ph.SkipCol0 && myCol == 0) {
				sortCells(col)
			}
			// Local sorting costs no cycles.
		case matrix.PhaseTransform:
			kind, ok := schedule.KindOf(ph.Name)
			if !ok {
				pr.Abortf("core: unknown transform %q", ph.Name)
			}
			sched := scheduleFor(sh, kind)
			rec.mark("phase" + itoa(ph.Num) + ":" + ph.Name)
			runTransform(pr, sh, ph.Transform, sched, isRep, myCol, col)
		}
	}
}

// runTransform plays one transformation schedule. Representatives move their
// intra-column cells locally for free, broadcast scheduled cells (staying
// silent for dummies), and read incoming cells (silence = dummy). col is
// updated in place at representatives. Non-representatives idle through the
// whole schedule.
func runTransform(pr mcb.Node, sh matrix.Shape, f matrix.Transform, sched *schedule.Schedule, isRep bool, myCol int, col []cell) {
	if !isRep {
		pr.IdleN(len(sched.Cycles))
		return
	}
	next := make([]cell, len(col))
	for r := 0; r < sh.M; r++ {
		src := sh.Pos(myCol, r)
		dst := f(sh, src)
		if sh.Col(dst) == myCol {
			next[sh.Row(dst)] = col[r]
		}
	}
	q := mcb.IdleCoalescer{Node: pr}
	for _, assigns := range sched.Cycles {
		var send, recv *schedule.Assign
		for i := range assigns {
			a := &assigns[i]
			if sh.Col(a.Src) == myCol {
				send = a
			}
			if sh.Col(a.Dst) == myCol {
				recv = a
			}
		}
		sending := send != nil && !col[sh.Row(send.Src)].dummy
		switch {
		case sending && recv != nil:
			msg, ok := q.WriteRead(send.Ch, col[sh.Row(send.Src)].e.msg(tagElem), recv.Ch)
			storeCell(next, sh.Row(recv.Dst), msg, ok)
		case sending:
			q.Write(send.Ch, col[sh.Row(send.Src)].e.msg(tagElem))
		case recv != nil:
			msg, ok := q.Read(recv.Ch)
			storeCell(next, sh.Row(recv.Dst), msg, ok)
		default:
			q.Idle()
		}
	}
	q.Flush()
	copy(col, next)
}

func storeCell(next []cell, row int, msg mcb.Message, ok bool) {
	if ok {
		next[row] = cell{e: elemFromMsg(msg)}
	} else {
		next[row] = cell{dummy: true}
	}
}

// redistribute is phase 10: after phase 9, the element of descending rank
// r (0-based) sits at column r/m, row r%m, with all dummies past rank n-1.
// Representatives broadcast their columns twice (cycles r and m+r); each
// processor's target ranks span at most two consecutive columns, read one
// per pass. Representatives take their own column's ranks locally.
func redistribute(pr mcb.Node, sh matrix.Shape, g *groupInfo, isRep bool, myCol int, col []cell, ni int) []elem {
	m := sh.M
	lo, hi := g.rankRange(ni)
	c1, c2 := lo/m, (hi-1)/m
	out := make([]elem, ni)
	passes := 2
	if sh.K == 1 {
		passes = 1
	}
	q := mcb.IdleCoalescer{Node: pr}
	for pass := 0; pass < passes; pass++ {
		// Column read (if any) this pass: c1 on pass 0, c2 on pass 1.
		readCol := -1
		if pass == 0 && (!isRep || c1 != myCol) {
			readCol = c1
		} else if pass == 1 && c2 != c1 && (!isRep || c2 != myCol) {
			readCol = c2
		}
		for r := 0; r < m; r++ {
			rank := readCol*m + r
			wantRead := readCol >= 0 && rank >= lo && rank < hi
			sendReal := isRep && !col[r].dummy
			switch {
			case sendReal && wantRead:
				msg, ok := q.WriteRead(myCol, col[r].e.msg(tagElem), readCol)
				if !ok {
					pr.Abortf("core: missing redistribution rank %d", rank)
				}
				out[rank-lo] = elemFromMsg(msg)
			case sendReal:
				q.Write(myCol, col[r].e.msg(tagElem))
			case wantRead:
				msg, ok := q.Read(readCol)
				if !ok {
					pr.Abortf("core: missing redistribution rank %d", rank)
				}
				out[rank-lo] = elemFromMsg(msg)
			default:
				q.Idle()
			}
		}
	}
	q.Flush()
	if isRep {
		// Take my own column's portion locally.
		for r := 0; r < m; r++ {
			rank := myCol*m + r
			if rank >= lo && rank < hi {
				if col[r].dummy {
					pr.Abortf("core: dummy at owned rank %d", rank)
				}
				out[rank-lo] = col[r].e
			}
		}
		pr.AccountAux(int64(-2 * len(col)))
	}
	return out
}

// sortCells sorts a column descending with dummies last.
func sortCells(col []cell) {
	seq.Sort(col, greaterCell)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
