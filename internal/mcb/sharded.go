package mcb

import (
	"fmt"
	"iter"
	"runtime"
)

// This file is the sharded execution engine (Config.Engine = EngineSharded):
// the p >> cores regime the paper's algorithms are stated in. M =
// min(GOMAXPROCS, p) workers each own a contiguous shard of p/M processors
// and step them as coroutines (iter.Pull): a processor program is an
// arbitrary blocking func(Node) body, but under this engine it only ever runs
// while its owning worker has resumed it, and submitting a cycle op is a
// yield back to that worker. A cycle then runs as a two-stage parallel
// protocol:
//
//   - Stepping (parallel): each worker resumes its ACTIVE processors in id
//     order; each runs its local computation up to its next cycle op, writes
//     its slot (exactly as in goroutine mode) and yields. Processors replaying
//     IdleN batches sleep in a (wake-round, id) min-heap and are neither
//     resumed nor walked, so idle-heavy phases (the §8 selection-filter
//     shape) cost O(active), not O(p).
//   - Stage 1 (parallel, pre-barrier): the worker folds its own shard —
//     phase-marker ids, write ops into a per-shard per-channel claim vector
//     (first writer id + message; a second intra-shard writer is a
//     collision), read and exit lists — and only then arrives at the shared
//     arrived/expected barrier, which in this mode counts workers, not
//     processors.
//   - Stage 2 (serial, last arriver): resolveMerge merges the M claim
//     vectors in shard order — which is processor-id order, so collision
//     attribution, abort order and phase-marker order are byte-identical to
//     the serial resolver — and commits channel registers and stats over the
//     touched channels only.
//   - Stage 3 (parallel, post-release): every worker scatters the read
//     results to its own shard from the merged channel registers; the
//     processors see them when next resumed.
//
// The general resolver (faults/trace/recorder) keeps its serial
// processor-id-order semantics — it scans the concatenated active lists
// instead of claim vectors — but gains the same active-list skip.
//
// The per-cycle cost model: one coroutine switch pair per ACTIVE processor
// (no channel operation, no scheduler wake-up), an O(active/M) fold and
// scatter per worker in parallel, an O(M) worker rendezvous, and an
// O(writes + M) merge. See DESIGN.md "The sharded engine".
//
// Failure: a worker leaves its loop as soon as it sees the run failed (after
// a resume, or at the rendezvous) and stops every coroutine of its shard on
// the way out; a processor suspended in a submission sees its yield return
// false and unwinds through the normal abort path, and one that never
// started never runs. A program that blocks outside the engine blocks its
// worker (and so its shard) until it returns, exactly as it would wedge the
// goroutine engine's barrier; the stall watchdog reports it.
//
// Memory ordering: a processor's slot write happens-before the worker's fold
// because the coroutine switch hands control (and the race detector's
// happens-before edge) back to the worker; every worker's fold
// happens-before the merge via the arrived counter's RMW chain; the merge's
// register and stats writes happen-before the scatters via the barrier
// generation bump (release) and each worker's acquire load in await; a
// worker's scatter writes happen-before its processors' reads via the
// resume, and happen-before the NEXT merge (which clears the registers) via
// the next cycle's arrived chain.

// sleeper is one processor inside an IdleN batch: its slot keeps standing for
// a bare opIdle every cycle without any per-cycle work, and it rejoins the
// active list (and is resumed again) at round wake.
type sleeper struct {
	wake int64
	id   int32
}

func sleeperLess(a, b sleeper) bool {
	return a.wake < b.wake || (a.wake == b.wake && a.id < b.id)
}

// readerRec is one pending read of the cycle being folded: processor id
// observes channel ch. Collected in stage 1, served in stage 3.
type readerRec struct {
	id int32
	ch int32
}

// shardWorker is the per-worker state of the sharded engine: the contiguous
// range [lo, hi) of processor ids it owns, the active/sleeping split of those
// processors, and the stage-1 fold aggregates the merge consumes.
//
// Everything here is owned by the worker goroutine between barriers; the
// resolver (one of the workers) reads it only after every worker has arrived.
type shardWorker struct {
	lo, hi int
	round  int64 // index of the round currently being collected

	// next[i] resumes processor lo+i up to its next submission; it reports
	// false once the program has unwound. stop[i] unwinds it for good.
	next []func() (struct{}, bool)
	stop []func()

	// active holds the owned ids that owe a fresh submission each cycle —
	// live and not inside an IdleN batch — in ascending order, so the merge
	// visiting shards in order sees processors in id order. sleep is a
	// min-heap on (wake, id); wakes is the reactivation scratch.
	active []int32
	sleep  []sleeper
	wakes  []int32

	// Stage-1 fold aggregates (fast path only; nil under faults/trace).
	// claim[c] is the shard's first writer of channel c this cycle (-1 none)
	// with its message in claimMsg[c]; touched lists the claimed channels so
	// resetting is O(writes), not O(K).
	claim    []int32
	claimMsg []Message
	touched  []int32
	readers  []readerRec
	exits    []int32
	phaseIDs []int32 // ids with pending phase markers, ascending

	// First write-stage violation of the fold (-1 = clean): the lowest owned
	// id whose write failed validation, with the error the serial scan would
	// have raised there. Read-range violations are tracked separately because
	// the serial resolver only surfaces them after the whole write stage
	// succeeded.
	errID     int32
	err       error
	readErrID int32
	readErrCh int32
}

// pushSleep inserts a sleeper into the worker's min-heap.
func (wk *shardWorker) pushSleep(wake int64, id int32) {
	wk.sleep = append(wk.sleep, sleeper{wake: wake, id: id})
	i := len(wk.sleep) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !sleeperLess(wk.sleep[i], wk.sleep[par]) {
			break
		}
		wk.sleep[i], wk.sleep[par] = wk.sleep[par], wk.sleep[i]
		i = par
	}
}

// popSleep removes and returns the earliest-due sleeper. Equal wake rounds
// pop in ascending id order, which keeps mass reactivations (every processor
// leaving a barrier-style batch at once) presorted.
func (wk *shardWorker) popSleep() sleeper {
	top := wk.sleep[0]
	n := len(wk.sleep) - 1
	wk.sleep[0] = wk.sleep[n]
	wk.sleep = wk.sleep[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && sleeperLess(wk.sleep[r], wk.sleep[l]) {
			m = r
		}
		if !sleeperLess(wk.sleep[m], wk.sleep[i]) {
			break
		}
		wk.sleep[i], wk.sleep[m] = wk.sleep[m], wk.sleep[i]
		i = m
	}
	return top
}

// initShards sizes the worker set and allocates the sharded-mode state.
// Called from Run before any worker starts.
func (e *engine) initShards() {
	p, k := e.cfg.P, e.cfg.K
	m := runtime.GOMAXPROCS(0)
	if m > p {
		m = p
	}
	if m < 1 {
		m = 1
	}
	chunk := (p + m - 1) / m
	nw := (p + chunk - 1) / chunk
	e.shardChunk = chunk
	e.shards = make([]shardWorker, nw)
	e.idleBatch = make([]int, p)
	e.workerLive = make([]int, nw)
	if e.fast {
		e.chTouched = make([]int32, 0, k)
	}
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > p {
			hi = p
		}
		n := hi - lo
		wk := shardWorker{
			lo: lo, hi: hi,
			next:      make([]func() (struct{}, bool), n),
			stop:      make([]func(), n),
			active:    make([]int32, n, n),
			sleep:     make([]sleeper, 0, n),
			wakes:     make([]int32, 0, n),
			errID:     -1,
			readErrID: -1,
		}
		for i := range wk.active {
			wk.active[i] = int32(lo + i)
		}
		if e.fast {
			wk.claim = make([]int32, k)
			for c := range wk.claim {
				wk.claim[c] = -1
			}
			wk.claimMsg = make([]Message, k)
			wk.touched = make([]int32, 0, n)
			wk.readers = make([]readerRec, 0, n)
			wk.phaseIDs = make([]int32, 0, n)
		}
		// exits feeds resolveMerge's sawWork/markExited in fast mode only
		// (the general resolver reads the exit ops itself), but it is cheap
		// and keeping it unconditional keeps the struct invariant simple.
		wk.exits = make([]int32, 0, n)
		e.shards[w] = wk
		e.workerLive[w] = n
	}
	e.activeWorkers = nw
	e.expected.Store(int32(nw))
}

// stepSharded is the sharded-mode counterpart of step: processor p has
// already written its submission into its slot (and, for an IdleN batch, its
// length into idleBatch); hand control back to the owning worker, which
// resumes p once the cycle is resolved — or, for an IdleN batch, once the
// whole stretch has passed. Exiting processors are never resumed before the
// worker unwinds them.
func (e *engine) stepSharded(p *Proc) readResult {
	if e.failed.Load() || !p.yield(struct{}{}) {
		panic(abortPanic{e.abortError()})
	}
	return e.results[p.id].r
}

// refreshActive brings the worker's active list up to date for the round
// about to be collected: processors that exited last cycle drop out, and
// sleepers whose batch ends this round fold back in, keeping the list
// ascending. Reactivated processors are resumed by the caller's stepping
// pass like everyone else.
func (e *engine) refreshActive(wk *shardWorker) {
	keep := wk.active[:0]
	for _, id := range wk.active {
		if e.live[id] {
			keep = append(keep, id)
		}
	}
	wk.active = keep
	if len(wk.sleep) == 0 || wk.sleep[0].wake > wk.round {
		return
	}
	wk.wakes = wk.wakes[:0]
	for len(wk.sleep) > 0 && wk.sleep[0].wake <= wk.round {
		wk.wakes = append(wk.wakes, wk.popSleep().id)
	}
	// The heap pops equal wake rounds in id order, so the scratch is already
	// sorted unless batches of different lengths end on the same round;
	// insertion sort handles the nearly-sorted common case in linear time.
	for i := 1; i < len(wk.wakes); i++ {
		for j := i; j > 0 && wk.wakes[j] < wk.wakes[j-1]; j-- {
			wk.wakes[j], wk.wakes[j-1] = wk.wakes[j-1], wk.wakes[j]
		}
	}
	// Backward in-place merge of the two ascending runs (active has spare
	// capacity for every owned processor, so this never allocates).
	na, nw := len(wk.active), len(wk.wakes)
	wk.active = wk.active[:na+nw]
	i, j, k := na-1, nw-1, na+nw-1
	for j >= 0 {
		if i >= 0 && wk.active[i] > wk.wakes[j] {
			wk.active[k] = wk.active[i]
			i--
		} else {
			wk.active[k] = wk.wakes[j]
			j--
		}
		k--
	}
}

// foldShard is stage 1 of the fast path: aggregate this shard's submissions
// before arriving at the barrier. It walks the active list only — sleeping
// processors are known bare opIdle slots — and mirrors the serial resolver's
// per-op validation order (channel range, collision-freedom, message-size
// budget), stopping at the shard's first write-stage violation so nothing
// past the abort point is aggregated. Cross-shard collisions cannot be seen
// here; resolveMerge detects them against the claims of earlier shards.
func (e *engine) foldShard(wk *shardWorker) {
	k := int32(e.cfg.K)
	for _, id := range wk.active {
		op := &e.slots[id].op
		if op.hasPhases {
			// Recorded before validation: the serial scan consumes a
			// processor's markers before validating its op, so the markers of
			// the aborting processor itself still register.
			wk.phaseIDs = append(wk.phaseIDs, id)
		}
		switch op.kind {
		case opWrite, opWriteRead:
			c := op.writeCh
			if c < 0 || c >= k {
				wk.errID = id
				wk.err = fmt.Errorf("%w: processor %d wrote invalid channel %d", ErrAborted, id, c)
				return
			}
			if prev := wk.claim[c]; prev >= 0 {
				wk.errID = id
				wk.err = &CollisionError{Cycle: e.stats.Cycles, Ch: int(c), ProcA: int(prev), ProcB: int(id)}
				return
			}
			// The claim registers before the budget check so that a
			// cross-shard collision on this very op still resolves as a
			// collision in the merge (stageWrite checks collisions first).
			wk.claim[c] = id
			wk.claimMsg[c] = op.msg
			wk.touched = append(wk.touched, c)
			if e.cfg.MaxAbs > 0 {
				if a := op.msg.maxAbs(); a > e.cfg.MaxAbs {
					wk.errID = id
					wk.err = &BudgetError{Budget: "message-size", Limit: e.cfg.MaxAbs, Observed: a, Proc: int(id)}
					return
				}
			}
			if op.kind == opWriteRead {
				if rc := op.readCh; rc < 0 || rc >= k {
					if wk.readErrID < 0 {
						wk.readErrID, wk.readErrCh = id, rc
					}
				} else {
					wk.readers = append(wk.readers, readerRec{id: id, ch: rc})
				}
			}
		case opRead:
			if rc := op.readCh; rc < 0 || rc >= k {
				if wk.readErrID < 0 {
					wk.readErrID, wk.readErrCh = id, rc
				}
			} else {
				wk.readers = append(wk.readers, readerRec{id: id, ch: rc})
			}
		case opExit:
			wk.exits = append(wk.exits, id)
		}
		// opIdle contributes nothing to fold state: idle work is accounted
		// globally in resolveMerge (every live processor submits exactly one
		// op, so the cycle saw work unless every submission was an exit).
	}
}

// resolveMerge is stage 2 of the fast path, executed by the last-arriving
// worker only: merge the M shard aggregates in shard order (= processor-id
// order) and commit channel registers and stats. It must be observably
// identical to resolveFast — abort attribution at the exact processor id the
// serial scan would have stopped at, phase markers consumed in id order up to
// and including that processor, and no stats from an aborted cycle.
func (e *engine) resolveMerge() {
	// Clear the previous cycle's registers via its touched list; the serial
	// resolvers sweep all K channels instead. chWriter starts all -1 (engine
	// setup), and every cycle's writes are recorded in chTouched below. The
	// previous cycle's scatters finished before their workers re-arrived, so
	// no stage-3 reader can observe this clear.
	for _, c := range e.chTouched {
		e.chWriter[c] = -1
	}
	e.chTouched = e.chTouched[:0]

	// Every loop below skips retired shards (workerLive == 0): their worker
	// left the barrier when its last processor exited, so its fold aggregates
	// are not synchronized with this resolution — they are stale leftovers of
	// its final round, possibly still being reset on the worker's way out. A
	// live shard's worker arrived this round, ordering its fold before this
	// merge.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		wk := &e.shards[w]
		failID, failErr := wk.errID, wk.err
		// Cross-shard collisions: this shard's first claimant of a channel an
		// earlier shard already registered. The lowest such id is where the
		// serial scan would have aborted. A tie against the shard's own
		// violation resolves to the collision, because stageWrite checks
		// collision-freedom before the message-size budget.
		for _, c := range wk.touched {
			if prev := e.chWriter[c]; prev >= 0 {
				if id := wk.claim[c]; failID < 0 || id <= failID {
					failID = id
					failErr = &CollisionError{Cycle: e.stats.Cycles, Ch: int(c), ProcA: prev, ProcB: int(id)}
				}
			}
		}
		if failID >= 0 {
			// Serial abort semantics: markers up to and including the failing
			// processor are consumed, stats are untouched. Later shards hold
			// only higher ids, so this shard's violation is the global first.
			e.consumePhasesAborted(w, failID)
			e.abort(failErr)
			return
		}
		for _, c := range wk.touched {
			e.chWriter[c] = int(wk.claim[c])
			e.chMsg[c] = wk.claimMsg[c]
			e.chTouched = append(e.chTouched, c)
		}
	}
	// Write stage clean: consume every shard's phase markers, in id order.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		for _, id := range e.shards[w].phaseIDs {
			e.consumePhases(int(id))
		}
	}
	// Read-range validation, in the serial pass-2 order: only after the whole
	// write stage (and phase consumption) succeeded, lowest id first, before
	// any exit or stat is applied.
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		wk := &e.shards[w]
		if wk.readErrID >= 0 {
			e.abort(fmt.Errorf("%w: processor %d read invalid channel %d", ErrAborted, wk.readErrID, wk.readErrCh))
			return
		}
	}
	// Exits and idle accounting. Every live processor submitted exactly one
	// op this cycle (sleepers replay opIdle), so the cycle saw work unless
	// every submission was an exit.
	totalExits := 0
	for w := range e.shards {
		if e.workerLive[w] == 0 {
			continue
		}
		totalExits += len(e.shards[w].exits)
	}
	sawWork := totalExits < e.liveN
	if totalExits > 0 {
		for w := range e.shards {
			if e.workerLive[w] == 0 {
				continue
			}
			for _, id := range e.shards[w].exits {
				e.markExited(int(id))
			}
		}
	}
	// Commit. The counters are sums and maxima, so the touched-list order
	// (shard-major, id order within) commits the same totals as the serial
	// resolver's channel sweep.
	var ph *PhaseStats
	if e.curPhase >= 0 {
		ph = &e.stats.Phases[e.curPhase]
	}
	for _, c := range e.chTouched {
		id := e.chWriter[c]
		e.stats.Messages++
		e.stats.PerProc[id]++
		e.stats.PerChannel[c]++
		if a := e.chMsg[c].maxAbs(); a > e.stats.MaxAbs {
			e.stats.MaxAbs = a
		}
		if ph != nil {
			ph.Messages++
			ph.PerChannel[c]++
		}
	}
	if sawWork {
		e.stats.Cycles++
		e.cycles.Store(e.stats.Cycles)
		if ph != nil {
			ph.Cycles++
		}
	}
	e.endCycle()
}

// consumePhasesAborted registers phase markers exactly as a serial scan that
// aborted at failID would have: every marker of the shards before failShard,
// plus failShard's markers up to and including failID.
func (e *engine) consumePhasesAborted(failShard int, failID int32) {
	for w := 0; w <= failShard; w++ {
		if e.workerLive[w] == 0 {
			continue
		}
		for _, id := range e.shards[w].phaseIDs {
			if w == failShard && id > failID {
				break
			}
			e.consumePhases(int(id))
		}
	}
}

// shardFinish is stage 3 of the fast path: after release, every worker
// scatters the cycle's read results to its own shard from the merged channel
// registers — in parallel with the other workers — and resets its fold
// aggregates. The registers stay stable until the next merge, which cannot
// start before every worker has re-arrived, i.e. after every scatter.
func (e *engine) shardFinish(wk *shardWorker) {
	for _, r := range wk.readers {
		if e.chWriter[r.ch] >= 0 {
			e.results[r.id].r = readResult{msg: e.chMsg[r.ch], ok: true}
		} else {
			e.results[r.id].r = readResult{}
		}
	}
	for _, c := range wk.touched {
		wk.claim[c] = -1
	}
	wk.touched = wk.touched[:0]
	wk.readers = wk.readers[:0]
	wk.exits = wk.exits[:0]
	wk.phaseIDs = wk.phaseIDs[:0]
}

// workerRun is the sharded engine's per-worker loop over the shard's
// processor programs. One iteration is one cycle: refresh the active list,
// step the active processors to their submissions, pre-aggregate them
// (stage 1), rendezvous (stage 2 on the last arriver), then scatter results
// (stage 3). However the loop ends — a fully exited shard, a failed run, or
// a program's runtime.Goexit unwinding through a resume — the deferred pass
// stops every coroutine, so none outlives the worker.
func (e *engine) workerRun(w int, programs []func(Node)) {
	wk := &e.shards[w]
	defer func() {
		for _, stop := range wk.stop {
			stop()
		}
	}()
	for i := range wk.next {
		p := &Proc{id: wk.lo + i, e: e}
		prog := programs[p.id]
		wk.next[i], wk.stop[i] = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			e.runProc(p, prog)
		})
	}
	for {
		if e.failed.Load() {
			return
		}
		g := e.barGen.Load()
		e.refreshActive(wk)
		if len(wk.active) == 0 && len(wk.sleep) == 0 {
			// The whole shard has exited; the resolver already retired this
			// worker from the barrier head count (markExited).
			return
		}
		// Step the active processors in id order. A newly announced IdleN
		// batch moves its processor to the sleep heap: the announcing
		// submission is this round's opIdle, and the processor is next
		// resumed at round+n. A round with no active processor costs this
		// worker O(1): every owned live processor is mid-batch and its slot
		// already holds this cycle's opIdle.
		keep := wk.active[:0]
		for _, id := range wk.active {
			if _, ok := wk.next[int(id)-wk.lo](); !ok {
				// The program unwound without submitting, which only a
				// failed run makes it do (runProc exits every other way).
				return
			}
			if n := e.idleBatch[id]; n != 0 {
				e.idleBatch[id] = 0
				wk.pushSleep(wk.round+int64(n), id)
			} else {
				keep = append(keep, id)
			}
		}
		wk.active = keep
		if e.fast {
			e.foldShard(wk)
		}
		// Worker rendezvous: the last arriver merges the shard aggregates
		// (fast path) or resolves serially over the active lists (general).
		if e.arrived.Add(1) == e.expected.Load() {
			e.resolve()
		} else {
			e.await(g)
		}
		if e.failed.Load() {
			return
		}
		if e.fast {
			e.shardFinish(wk)
		}
		wk.round++
	}
}
