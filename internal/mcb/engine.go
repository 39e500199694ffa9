package mcb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"mcbnet/internal/trace"
)

// EngineMode selects the execution engine of a run. Both engines implement
// the same lock-step cycle semantics and produce byte-identical Reports for
// identical (Config, FaultPlan, programs), so the choice is purely a
// performance decision; the cross-engine determinism tests hold them to it.
type EngineMode string

const (
	// EngineAuto (the zero value) picks EngineSharded for large networks
	// (P >= autoShardP) and EngineGoroutine otherwise.
	EngineAuto EngineMode = ""
	// EngineGoroutine binds one goroutine per processor; every processor
	// arrives at a shared sense-reversing barrier each cycle and the last
	// arriver resolves. Fastest for small p, where the spin window catches
	// the resolver finishing on another core; degrades superlinearly as p
	// grows (O(p) parked goroutines woken per cycle).
	EngineGoroutine EngineMode = "goroutine"
	// EngineSharded runs the processors as coroutines stepped by M ~
	// GOMAXPROCS workers, each owning a contiguous shard of p/M processors:
	// a submission is a yield back to the worker, so no processor ever waits
	// in the scheduler. Resolution is a two-stage parallel protocol: each
	// worker pre-aggregates its shard's submissions before arriving at the
	// O(M) worker barrier (stage 1), the last arriver merges the M shard
	// aggregates in processor-id order and commits (stage 2), and after
	// release every worker scatters read results to its own shard in
	// parallel (stage 3). Processors inside IdleN batches are neither
	// resumed nor walked until their batch ends, so a cycle costs O(active)
	// coroutine switches plus the O(M) rendezvous, not O(p). Built for p in
	// the thousands and up (see DESIGN.md "The sharded engine").
	EngineSharded EngineMode = "sharded"
)

// autoShardP is the processor count at which EngineAuto switches to the
// sharded engine: below it the goroutine engine's spin window wins, above it
// the O(p) barrier wake-up dominates everything else.
const autoShardP = 1024

// engineMode resolves EngineAuto to a concrete engine.
func (c Config) engineMode() EngineMode {
	if c.Engine == EngineAuto {
		if c.P >= autoShardP {
			return EngineSharded
		}
		return EngineGoroutine
	}
	return c.Engine
}

// Config describes an MCB(p, k) network and run options.
type Config struct {
	// P is the number of processors (p >= 1).
	P int
	// K is the number of shared broadcast channels (1 <= k <= p).
	K int
	// Engine selects the execution engine: EngineGoroutine (one goroutine
	// per processor), EngineSharded (M ~ GOMAXPROCS workers stepping p/M
	// processor coroutines each), or EngineAuto (the default: sharded for
	// P >= 1024). Reports are byte-identical across engines.
	Engine EngineMode
	// Trace enables full per-cycle traffic recording (expensive; tests only).
	Trace bool
	// MaxCycles aborts the run once this many cycles have elapsed: the run
	// executes exactly MaxCycles cycles, then fails before delivering the
	// results of the last one. Zero means no limit.
	MaxCycles int64
	// StallTimeout aborts the run if no cycle completes for this long,
	// which indicates a processor program that stopped issuing cycle
	// operations (a lock-step protocol bug). Zero means 30 seconds.
	StallTimeout time.Duration
	// MaxAbs, when positive, enforces the model's O(log beta) message-size
	// rule at runtime: any broadcast payload field whose absolute value
	// exceeds this budget aborts the run. Zero disables the check.
	MaxAbs int64
	// Faults enables deterministic fault injection (see FaultPlan). Nil
	// injects nothing.
	Faults *FaultPlan
	// Recorder, when non-nil, streams fixed-size binary cycle events
	// (writes, reads, silences, idles, collisions, faults, phase switches)
	// into the recorder's preallocated per-processor ring buffers for later
	// export (JSONL, Perfetto; see internal/trace). Unlike Trace it never
	// allocates per event and never grows: a full ring overwrites its
	// oldest events. The recorder must be sized for at least P processors
	// and must not be shared between concurrent runs; consecutive runs
	// (e.g. retry attempts) may share one, appending their events.
	Recorder *trace.Recorder
	// ProfileLabels attaches pprof goroutine labels (processor id, current
	// accounting phase) to processor goroutines, so CPU profiles attribute
	// samples to algorithm phases (Columnsort stages, selection filter
	// rounds). Off by default; labeling costs a few allocations per phase
	// switch.
	ProfileLabels bool
	// AbortGrace bounds how long Run waits for processor goroutines to
	// unwind after an abort before giving up and returning a nil Result
	// (the stragglers' goroutines leak; see Run). Zero means 2 seconds.
	AbortGrace time.Duration
	// AbortC, when non-nil, is closed as soon as the run fails, before Run
	// returns. Programs that block on sources other than the engine (e.g. a
	// transport relay waiting for a remote processor's next op) select on it
	// to unwind promptly instead of wedging the abort grace period. It is
	// never closed on a successful run.
	AbortC chan struct{}
}

func (c Config) validate() error {
	if c.P < 1 {
		return fmt.Errorf("mcb: P must be >= 1, got %d", c.P)
	}
	if c.K < 1 || c.K > c.P {
		return fmt.Errorf("mcb: K must satisfy 1 <= K <= P, got K=%d P=%d", c.K, c.P)
	}
	if c.Recorder != nil && c.Recorder.Procs() < c.P {
		return fmt.Errorf("mcb: recorder sized for %d processors, network has %d", c.Recorder.Procs(), c.P)
	}
	switch c.Engine {
	case EngineAuto, EngineGoroutine, EngineSharded:
	default:
		return fmt.Errorf("mcb: unknown engine mode %q (want %q, %q or auto)", c.Engine, EngineGoroutine, EngineSharded)
	}
	return nil
}

// fastEligible reports whether a run can take the specialized fast resolver:
// no active fault plan, no full trace, no cycle recorder. Kept as a function
// so the fast-path selection test pins the exact condition.
func fastEligible(cfg Config, fs *faultState) bool {
	return fs == nil && !cfg.Trace && cfg.Recorder == nil
}

// CollisionError reports a violation of the collision-freedom requirement:
// two processors wrote the same channel in the same cycle. Per the model,
// the computation fails.
type CollisionError struct {
	Cycle        int64
	Ch           int
	ProcA, ProcB int
}

func (e *CollisionError) Error() string {
	return fmt.Sprintf("mcb: collision on channel %d at cycle %d (processors %d and %d)",
		e.Ch, e.Cycle, e.ProcA, e.ProcB)
}

// ErrAborted is returned when the run was aborted (stall, cycle limit, or
// a processor called Abortf); errors.Is works against it.
var ErrAborted = errors.New("mcb: run aborted")

// Result is the outcome of a completed run.
type Result struct {
	Stats Stats
	Trace *Trace // nil unless Config.Trace
}

type opKind uint8

const (
	opIdle opKind = iota
	opWrite
	opRead
	opWriteRead
	opExit
)

// cycleOp is one processor's submission for one cycle. It is kept slim (no
// pointers in the common case) so a padded slot fits one cache line; the
// rarely-used phase markers travel in engine.phaseSlots, flagged here by
// hasPhases.
type cycleOp struct {
	kind      opKind
	hasPhases bool // phase markers for this op are in engine.phaseSlots
	writeCh   int32
	readCh    int32
	msg       Message
}

type readResult struct {
	msg Message
	ok  bool
}

// cacheLine is the padding granularity for the per-processor hot arrays.
// 64 bytes matches amd64 and most arm64 parts; on machines with larger
// effective lines the padding merely halves, it never breaks correctness.
const cacheLine = 64

// paddedOp, paddedResult and paddedMirror pad their payload to a cache-line
// multiple so that neighbouring processors' slot writes (each processor
// stores only its own index; the resolver reads them all) never contend on
// a shared line (false sharing).
type paddedOp struct {
	op cycleOp
	_  [(cacheLine - unsafe.Sizeof(cycleOp{})%cacheLine) % cacheLine]byte
}

type paddedResult struct {
	r readResult
	_ [(cacheLine - unsafe.Sizeof(readResult{})%cacheLine) % cacheLine]byte
}

type paddedMirror struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// abortPanic unwinds processor goroutines when the engine has failed.
type abortPanic struct{ err error }

// crashPanic unwinds a single processor goroutine when its scheduled
// crash-stop fires; the run itself keeps going.
type crashPanic struct{}

type engine struct {
	cfg  Config
	fast bool       // no faults and no trace: resolve takes the specialized path
	mode EngineMode // resolved execution mode, never EngineAuto

	// Sharded-engine state (nil / zero in goroutine mode). Processor id i is
	// owned by worker i/shardChunk; workers rendezvous at the arrived/expected
	// barrier in place of the processors. workerLive and activeWorkers are
	// resolver-owned (synchronized by the barrier like live/liveN).
	shardChunk    int
	shards        []shardWorker
	idleBatch     []int // per-processor pending IdleN batch length, set before the yield
	workerLive    []int // per-worker live processor count
	activeWorkers int   // workers with at least one live processor

	slots      []paddedOp     // per-processor cycle submissions
	results    []paddedResult // per-processor read results
	phaseSlots [][]string     // per-processor pending phase markers (cold)
	live       []bool
	liveN      int

	// channel registers for the cycle being resolved
	chWriter []int // writer proc id per channel, -1 if none
	chMsg    []Message
	chOutage []bool // per-channel outage flag, recomputed once per cycle

	// chTouched lists the channels written this cycle (fast sharded path
	// only): resolveMerge clears the previous cycle's registers through it in
	// O(writes) instead of sweeping all K. chWriter starts all -1 to match.
	chTouched []int32
	// genAct is resolveGeneral's per-cycle active-processor scratch (only
	// allocated on the general path): ascending ids of the live processors
	// with a fresh submission this cycle, excluding IdleN-batch sleepers.
	genAct []int32

	// Cycle barrier: a sense-reversing generation counter plus spin-then-park
	// waiters. Arrival is counted in arrived; the last arriver resolves the
	// cycle and advances barGen (the "sense"), which releases the spinners;
	// waiters that gave up spinning park on barCond and are woken only when
	// parked says somebody is actually there. The three atomics live on
	// separate cache lines: arrived takes a contended RMW per processor per
	// cycle, barGen is read-spun by every waiter.
	_pad0    [cacheLine]byte
	arrived  atomic.Int32
	_pad1    [cacheLine - 4]byte
	expected atomic.Int32
	_pad2    [cacheLine - 4]byte
	barGen   atomic.Uint64
	_pad3    [cacheLine - 8]byte

	parked    atomic.Int32
	barMu     sync.Mutex
	barCond   sync.Cond
	busySpins int // pure-spin probes before yielding; 0 on GOMAXPROCS=1

	cycles atomic.Int64 // progress counter for the watchdog
	// procMirror[i] is an atomic mirror of processor i's slot-table state,
	// packed (steps << 3 | opKind). Written only by processor i (in step),
	// read by the stall watchdog for diagnostics.
	procMirror []paddedMirror
	faults     *faultState
	stats      Stats
	phaseIdx   map[string]int // phase name -> index in stats.Phases
	curPhase   int            // index of the active phase, -1 before any marker
	trace      *Trace
	rec        *trace.Recorder // cycle event recorder, nil when tracing is off
	recPhase   int32           // recorder-interned id of the active phase, -1 before any
	failed     atomic.Bool
	abortErr   error
	abortMu    sync.Mutex
	aborted    chan struct{} // closed on failure
	abortOne   sync.Once
	allDone    chan struct{} // closed when all processors exit

	maxAux atomic.Int64
}

func (e *engine) abort(err error) {
	e.abortMu.Lock()
	if e.abortErr == nil {
		e.abortErr = err
	}
	e.abortMu.Unlock()
	e.failed.Store(true)
	e.abortOne.Do(func() {
		close(e.aborted)
		if e.cfg.AbortC != nil {
			close(e.cfg.AbortC)
		}
	})
	// Wake parked waiters so they observe the failure; spinners check the
	// failed flag on every probe. failed is stored before taking barMu, and a
	// waiter holds barMu from its parked re-check until Wait releases it, so
	// this Broadcast cannot slip into that window: the waiter either sees
	// failed set and never parks, or parks before we acquire the lock and is
	// woken by the Broadcast.
	e.barMu.Lock()
	e.barCond.Broadcast()
	e.barMu.Unlock()
}

func (e *engine) abortError() error {
	e.abortMu.Lock()
	defer e.abortMu.Unlock()
	return e.abortErr
}

// softErr records a processor program error without tearing down the barrier
// immediately; the processor exits normally and the run fails at the end.
func (e *engine) softErr(err error) {
	e.abortMu.Lock()
	if e.abortErr == nil {
		e.abortErr = err
	}
	e.abortMu.Unlock()
}

// step counts processor p's arrival for the current cycle — the processor
// has already written its submission into its slot — and, once every live
// processor has arrived, resolves the cycle. It blocks until resolution and
// returns the read result for reading ops.
func (e *engine) step(p *Proc, kind opKind) readResult {
	if e.mode == EngineSharded {
		return e.stepSharded(p)
	}
	id := p.id
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
	g := e.barGen.Load()
	if e.arrived.Add(1) == e.expected.Load() {
		e.resolve()
		if kind == opExit {
			return readResult{}
		}
	} else {
		if kind == opExit {
			// Exiting processors do not wait for the cycle outcome.
			return readResult{}
		}
		e.await(g)
	}
	if e.failed.Load() {
		panic(abortPanic{e.abortError()})
	}
	return e.results[id].r
}

// barrierYields bounds how many scheduler yields a waiter spends probing the
// generation counter before parking on the condition variable. A cycle
// resolves in O(p) work once every processor has arrived, so on a healthy
// run a couple of yields suffice; the park path is the backstop for
// oversubscribed machines and programs doing long local computation.
const barrierYields = 16

// await blocks until the barrier generation has advanced past g (the cycle
// this waiter submitted to has been resolved) or the run has failed. It
// spins first — pure probes while other cores may be resolving, then
// scheduler yields — and parks on barCond as a last resort.
func (e *engine) await(g uint64) {
	for i := 0; i < e.busySpins; i++ {
		if e.barGen.Load() != g || e.failed.Load() {
			return
		}
	}
	for i := 0; i < barrierYields; i++ {
		if e.barGen.Load() != g || e.failed.Load() {
			return
		}
		runtime.Gosched()
	}
	e.barMu.Lock()
	for e.barGen.Load() == g && !e.failed.Load() {
		e.parked.Add(1)
		// Re-check after publishing parked: advance() reads parked after
		// bumping the generation, so either it sees our increment and
		// broadcasts, or this probe sees the new generation — never neither.
		if e.barGen.Load() != g || e.failed.Load() {
			e.parked.Add(-1)
			break
		}
		e.barCond.Wait()
		e.parked.Add(-1)
	}
	e.barMu.Unlock()
}

// advance opens the next barrier generation and releases this cycle's
// waiters. The generation bump is the release edge for all plain stores the
// resolver made (results, stats): waiters synchronize on loading the new
// value. Called only by the resolver. In goroutine mode the barrier counts
// live processors; in sharded mode it counts workers with live processors.
func (e *engine) advance() {
	e.arrived.Store(0)
	if e.mode == EngineSharded {
		e.expected.Store(int32(e.activeWorkers))
	} else {
		e.expected.Store(int32(e.liveN))
	}
	e.barGen.Add(1)
	// Park-ordering invariant (see TestBarrierAbortStorm): parked is read
	// only after the generation bump above, while a waiter publishes its
	// parked increment before re-checking the generation (under barMu, before
	// Wait). sync/atomic's total order over these four operations leaves no
	// interleaving where the waiter parks and this load misses it: either we
	// observe parked > 0 and broadcast, or the waiter's re-check observes the
	// new generation and never waits.
	if e.parked.Load() > 0 {
		e.barMu.Lock()
		e.barCond.Broadcast()
		e.barMu.Unlock()
	}
}

// switchPhase makes name the active accounting phase, creating its Stats
// entry on first sight. Re-marking the active phase is a no-op; segments
// sharing a name share one entry. id is the processor whose marker caused
// the switch (trace attribution only).
func (e *engine) switchPhase(id int, name string) {
	if e.curPhase >= 0 && e.stats.Phases[e.curPhase].Name == name {
		return
	}
	idx, ok := e.phaseIdx[name]
	if !ok {
		idx = len(e.stats.Phases)
		// PerChannel is allocated here, at phase creation, so the per-cycle
		// commit loops stay branch- and allocation-free; finalize drops it
		// again for phases that never broadcast, keeping the documented
		// "nil if the phase broadcast nothing" Report shape.
		e.stats.Phases = append(e.stats.Phases, PhaseStats{Name: name, PerChannel: make([]int64, e.cfg.K)})
		e.phaseIdx[name] = idx
	}
	e.curPhase = idx
	if e.rec != nil {
		e.recPhase = e.rec.PhaseID(name)
		e.rec.Record(trace.Event{Cycle: e.stats.Cycles, Proc: int32(id), Ch: -1,
			Phase: e.recPhase, Kind: trace.KindPhase})
	}
}

// consumePhases registers processor id's pending phase markers, if any.
func (e *engine) consumePhases(id int) {
	for _, name := range e.phaseSlots[id] {
		e.switchPhase(id, name)
	}
	e.phaseSlots[id] = nil
}

// stageWrite validates processor id's write and registers it in the channel
// slots. It returns false when the write aborted the run. Stats are not
// touched here (see the invariant on resolveGeneral).
func (e *engine) stageWrite(id int, op *cycleOp) bool {
	c := int(op.writeCh)
	if c < 0 || c >= e.cfg.K {
		e.abort(fmt.Errorf("%w: processor %d wrote invalid channel %d", ErrAborted, id, c))
		return false
	}
	if prev := e.chWriter[c]; prev >= 0 {
		if e.rec != nil {
			e.rec.Record(trace.Event{Cycle: e.stats.Cycles, Proc: int32(id), Ch: int32(c),
				Phase: e.recPhase, Arg: int64(prev), Kind: trace.KindCollision})
		}
		e.abort(&CollisionError{Cycle: e.stats.Cycles, Ch: c, ProcA: prev, ProcB: id})
		return false
	}
	if e.cfg.MaxAbs > 0 {
		if a := op.msg.maxAbs(); a > e.cfg.MaxAbs {
			e.abort(&BudgetError{Budget: "message-size", Limit: e.cfg.MaxAbs, Observed: a, Proc: id})
			return false
		}
	}
	e.chWriter[c] = id
	e.chMsg[c] = op.msg
	return true
}

// markExited removes processor id from the lock-step protocol. Called only by
// the resolver (pass 3); in sharded mode it also retires the owning worker
// from the barrier head count when its last processor leaves.
func (e *engine) markExited(id int) {
	e.live[id] = false
	e.liveN--
	if e.mode == EngineSharded {
		w := id / e.shardChunk
		if e.workerLive[w]--; e.workerLive[w] == 0 {
			e.activeWorkers--
		}
	}
}

// endCycle applies the run budgets and either finishes the run or opens the
// next barrier generation. Shared tail of both resolver paths. On abort the
// generation is left closed: waiters observe the failed flag instead.
func (e *engine) endCycle() {
	if e.cfg.MaxCycles > 0 && e.stats.Cycles >= e.cfg.MaxCycles {
		e.abort(&BudgetError{Budget: "cycles", Limit: e.cfg.MaxCycles, Observed: e.stats.Cycles, Proc: -1})
		return
	}
	if e.liveN == 0 {
		close(e.allDone)
		if e.mode == EngineSharded {
			// Exiting processors never wait on the cycle outcome, but the
			// OTHER workers are parked at the rendezvous: open the generation
			// so they observe termination and return (expected is already 0,
			// so nothing resolves again).
			e.advance()
		}
		return
	}
	e.advance()
}

// resolve is executed by exactly one goroutine per cycle (the last arriver)
// and is therefore free of data races. It processes the submitted ops in
// processor-id order, making runs deterministic. The fast path handles the
// common case — no fault plan, no trace — with no fault dispatch, no trace
// bookkeeping and no staged fault counters; the general path handles the
// rest. Both paths must stay observably identical under a nil plan: the
// cross-path determinism test holds them to byte-identical Report output.
func (e *engine) resolve() {
	if e.fast {
		if e.mode == EngineSharded {
			e.resolveMerge()
		} else {
			e.resolveFast()
		}
	} else {
		e.resolveGeneral()
	}
}

// resolveFast is the no-fault/no-trace cycle resolver. Steady-state cycles
// (no phase markers pending) allocate nothing here.
func (e *engine) resolveFast() {
	p := e.cfg.P
	for c := range e.chWriter {
		e.chWriter[c] = -1
	}
	sawWork := false
	sawExit := false
	// Pass 1: phase markers (processor-id order, so an entry exists even for
	// a zero-traffic phase) and writes. Validation runs before any counter
	// is touched, exactly like the general path.
	for id := 0; id < p; id++ {
		if !e.live[id] {
			continue
		}
		op := &e.slots[id].op
		if op.hasPhases {
			e.consumePhases(id)
		}
		switch op.kind {
		case opWrite, opWriteRead:
			sawWork = true
			if !e.stageWrite(id, op) {
				return
			}
		case opRead, opIdle:
			sawWork = true
		case opExit:
			sawExit = true
		}
	}
	// Pass 2: reads observe the channel registers; no fault dispatch.
	for id := 0; id < p; id++ {
		if !e.live[id] {
			continue
		}
		op := &e.slots[id].op
		if op.kind != opRead && op.kind != opWriteRead {
			continue
		}
		c := int(op.readCh)
		if c < 0 || c >= e.cfg.K {
			e.abort(fmt.Errorf("%w: processor %d read invalid channel %d", ErrAborted, id, c))
			return
		}
		if e.chWriter[c] >= 0 {
			e.results[id].r = readResult{msg: e.chMsg[c], ok: true}
		} else {
			e.results[id].r = readResult{}
		}
	}
	// Pass 3: exits (skipped entirely on the usual all-live cycle).
	if sawExit {
		for id := 0; id < p; id++ {
			if e.live[id] && e.slots[id].op.kind == opExit {
				e.markExited(id)
			}
		}
	}
	// Commit.
	var ph *PhaseStats
	if e.curPhase >= 0 {
		ph = &e.stats.Phases[e.curPhase]
	}
	for c, id := range e.chWriter {
		if id < 0 {
			continue
		}
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

// resolveGeneral is the full cycle resolver: fault injection at delivery,
// channel outages, and optional per-cycle trace recording.
//
// Invariant: Stats reflects only fully resolved cycles. Validation (channel
// range, collision-freedom, the message-size budget) runs before any counter
// is touched, so a run that aborts mid-cycle leaves no partial increments
// from the failed cycle behind.
func (e *engine) resolveGeneral() {
	for c := range e.chWriter {
		e.chWriter[c] = -1
	}
	// Build this cycle's active list: live processors with a fresh
	// submission, in ascending id order. In sharded mode the workers maintain
	// the split incrementally and concatenating the shard lists in order
	// yields id order; processors sleeping through IdleN batches are known
	// bare opIdle slots and enter only as a count, so idle-heavy phases cost
	// O(active) here too. In goroutine mode it is simply the live set.
	act := e.genAct[:0]
	sleepers := 0
	if e.mode == EngineSharded {
		// Skip retired shards (workerLive == 0): their worker left the
		// barrier when its last processor exited, so its lists are no longer
		// synchronized with this resolution — they are stale leftovers of its
		// final round, and the worker may still be mutating them on its way
		// out. A live shard's worker arrived this round, which orders its
		// updates before this read.
		for w := range e.shards {
			if e.workerLive[w] == 0 {
				continue
			}
			act = append(act, e.shards[w].active...)
			sleepers += len(e.shards[w].sleep)
		}
	} else {
		for id := 0; id < e.cfg.P; id++ {
			if e.live[id] {
				act = append(act, int32(id))
			}
		}
	}
	e.genAct = act
	// Phase markers: consumed up front, in processor-id order, so an entry
	// exists even for a zero-traffic phase (a marker riding on the final
	// exit op still registers). Sleepers never carry markers: an IdleN
	// batch's first cycle goes through the full per-cycle path.
	for _, id := range act {
		if e.slots[id].op.hasPhases {
			e.consumePhases(int(id))
		}
	}
	// A sleeping processor idles this cycle by definition, so the cycle saw
	// work even if every active submission is an exit.
	sawWork := sleepers > 0
	var tr *CycleTrace
	if e.trace != nil {
		tr = &CycleTrace{Cycle: e.stats.Cycles}
		if e.curPhase >= 0 {
			tr.Phase = e.stats.Phases[e.curPhase].Name
		}
	}
	cycle := e.stats.Cycles
	var plan *FaultPlan
	if e.faults != nil {
		plan = e.faults.plan
	}
	// Outage status is a function of (channel, cycle) only: compute it once
	// per channel here instead of once per reader plus once per written
	// channel at commit. chOutage stays all-false when the plan has no
	// outage windows (it is never written then).
	if plan != nil && len(plan.Outages) > 0 {
		for c := range e.chOutage {
			e.chOutage[c] = plan.outageAt(c, cycle)
		}
	}
	// Sleeper idle events: each processor mid-IdleN-batch idles this cycle.
	// Recorded after the phase pass so the events carry the cycle's active
	// phase, exactly like a per-cycle opIdle would; the recorder's rings are
	// per-processor, so emitting them ahead of the active scan (rather than
	// interleaved in id order) changes no observable ordering.
	if e.rec != nil && sleepers > 0 {
		for w := range e.shards {
			if e.workerLive[w] == 0 {
				continue
			}
			for _, s := range e.shards[w].sleep {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: s.id, Ch: -1,
					Phase: e.recPhase, Kind: trace.KindIdle})
			}
		}
	}
	// Pass 1: writes — register into the channel slots and validate, but do
	// not touch Stats yet (see the invariant above).
	for _, id32 := range act {
		id := int(id32)
		op := &e.slots[id].op
		switch op.kind {
		case opWrite, opWriteRead:
			sawWork = true
			if !e.stageWrite(id, op) {
				return
			}
			if tr != nil {
				tr.Writes = append(tr.Writes, WriteEvent{Proc: id, Ch: int(op.writeCh), Msg: op.msg})
			}
			if e.rec != nil {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: op.writeCh,
					Phase: e.recPhase, Arg: op.msg.X, Kind: trace.KindWrite})
			}
		case opRead, opIdle, opExit:
			if op.kind != opExit {
				sawWork = true
				if op.kind == opIdle && e.rec != nil {
					e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: -1,
						Phase: e.recPhase, Kind: trace.KindIdle})
				}
			}
		}
	}
	// Pass 2: reads, with fault injection at delivery. Fault counters are
	// staged locally and committed with the cycle (see the invariant above).
	var fDelta FaultStats
	for _, id32 := range act {
		id := int(id32)
		op := &e.slots[id].op
		if op.kind != opRead && op.kind != opWriteRead {
			continue
		}
		c := int(op.readCh)
		if c < 0 || c >= e.cfg.K {
			e.abort(fmt.Errorf("%w: processor %d read invalid channel %d", ErrAborted, id, c))
			return
		}
		var rr readResult
		var faultCode int64
		if e.chWriter[c] >= 0 && !e.chOutage[c] {
			msg := e.chMsg[c]
			switch {
			case plan.dropAt(cycle, id, c):
				fDelta.Drops++ // reader sees silence
				faultCode = trace.FaultDrop
			default:
				if cm, garbled := plan.corruptAt(cycle, id, c, msg); garbled {
					if plan.Checksum && msgSum(msg) != msgSum(cm) {
						// Detected: the garbled frame is discarded, the
						// reader observes silence.
						fDelta.Detected++
						faultCode = trace.FaultDetected
					} else {
						fDelta.Corruptions++
						faultCode = trace.FaultCorrupt
						rr = readResult{msg: cm, ok: true}
					}
				} else {
					rr = readResult{msg: msg, ok: true}
				}
			}
		}
		e.results[id].r = rr
		if tr != nil {
			tr.Reads = append(tr.Reads, ReadEvent{Proc: id, Ch: c, Msg: rr.msg, OK: rr.ok})
		}
		if e.rec != nil {
			if faultCode != 0 {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c),
					Phase: e.recPhase, Arg: faultCode, Kind: trace.KindFault})
			}
			ev := trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c), Phase: e.recPhase}
			if rr.ok {
				ev.Kind, ev.Arg = trace.KindRead, rr.msg.X
			} else {
				ev.Kind = trace.KindSilence
			}
			e.rec.Record(ev)
		}
	}
	// Pass 3: exits.
	for _, id32 := range act {
		if e.slots[id32].op.kind == opExit {
			e.markExited(int(id32))
		}
	}
	// Commit: the cycle resolved without failure, so fold its traffic into
	// Stats (and the active phase) now.
	var ph *PhaseStats
	if e.curPhase >= 0 {
		ph = &e.stats.Phases[e.curPhase]
	}
	for c, id := range e.chWriter {
		if id < 0 {
			continue
		}
		e.stats.Messages++
		e.stats.PerProc[id]++
		e.stats.PerChannel[c]++
		if e.chOutage[c] {
			fDelta.OutageLosses++
			// Per-channel attribution for the degradation retry. Allocated
			// lazily on the first actual loss, so fault-free runs (and faulted
			// runs without outages) keep the steady-state zero-alloc invariant.
			if e.stats.Faults.OutagePerChannel == nil {
				e.stats.Faults.OutagePerChannel = make([]int64, e.cfg.K)
			}
			e.stats.Faults.OutagePerChannel[c]++
			if e.rec != nil {
				e.rec.Record(trace.Event{Cycle: cycle, Proc: int32(id), Ch: int32(c),
					Phase: e.recPhase, Arg: trace.FaultOutage, Kind: trace.KindFault})
			}
		}
		if a := e.chMsg[c].maxAbs(); a > e.stats.MaxAbs {
			e.stats.MaxAbs = a
		}
		if ph != nil {
			ph.Messages++
			ph.PerChannel[c]++
		}
	}
	e.stats.Faults.add(&fDelta)
	if sawWork {
		e.stats.Cycles++
		e.cycles.Store(e.stats.Cycles)
		if ph != nil {
			ph.Cycles++
		}
		if tr != nil {
			e.trace.Cycles = append(e.trace.Cycles, *tr)
		}
	}
	e.endCycle()
}

// finalize folds the cross-goroutine watermarks and the derived per-phase
// utilization into Stats. Called once, after every processor goroutine has
// stopped.
func (e *engine) finalize() {
	if aux := e.maxAux.Load(); aux > e.stats.MaxAux {
		e.stats.MaxAux = aux
	}
	if evs, _ := e.faults.crashes(); len(evs) > 0 {
		e.stats.Faults.Crashes = evs
		if e.rec != nil {
			// Crashes fire on processor goroutines, so they are recorded
			// here, after quiescence, rather than racing with the resolver.
			// The canonical event order sorts them into their cycle.
			for _, ev := range evs {
				e.rec.Record(trace.Event{Cycle: ev.Cycle, Proc: int32(ev.Proc), Ch: -1,
					Phase: -1, Arg: trace.FaultCrash, Kind: trace.KindFault})
			}
		}
	}
	for i := range e.stats.Phases {
		ph := &e.stats.Phases[i]
		if ph.Cycles > 0 {
			ph.Utilization = float64(ph.Messages) / (float64(ph.Cycles) * float64(e.cfg.K))
		}
		// switchPhase preallocates PerChannel so the commit loops never
		// branch on it; restore the documented nil-when-silent shape here.
		if ph.Messages == 0 {
			ph.PerChannel = nil
		}
	}
}

// Run executes one program per processor on an MCB(cfg.P, cfg.K) network.
// programs[i] runs as processor i; it must follow the lock-step discipline
// of issuing exactly one cycle operation (WriteRead, Write, Read or Idle)
// whenever any other live processor does. Run returns when every program
// has returned, or with an error on collision, abort, panic or stall.
//
// On failure the error is accompanied by a partial *Result covering the
// cycles that completed before the abort, when the engine could collect it
// safely; the Result is nil if a processor goroutine could not be stopped.
func Run(cfg Config, programs []func(Node)) (*Result, error) {
	return RunContext(context.Background(), cfg, programs)
}

// RunContext is Run with cancellation: when ctx is cancelled the run aborts
// like any other typed failure. The abort error is context.Cause(ctx) when
// the caller installed a typed cause (context.WithCancelCause — the transport
// layer maps peer loss to a *StallError this way), otherwise a generic
// *AbortError carrying the context error, so errors.Is(err, ErrAborted)
// holds either way. A background context adds no per-cycle cost: the engine
// hot path never consults it; only the supervisor select does.
func RunContext(ctx context.Context, cfg Config, programs []func(Node)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(programs) != cfg.P {
		return nil, fmt.Errorf("mcb: %d programs for %d processors", len(programs), cfg.P)
	}
	e := &engine{
		cfg:        cfg,
		slots:      make([]paddedOp, cfg.P),
		results:    make([]paddedResult, cfg.P),
		phaseSlots: make([][]string, cfg.P),
		live:       make([]bool, cfg.P),
		chWriter:   make([]int, cfg.K),
		chMsg:      make([]Message, cfg.K),
		chOutage:   make([]bool, cfg.K),
		procMirror: make([]paddedMirror, cfg.P),
		faults:     newFaultState(cfg.Faults, cfg.P),
		phaseIdx:   make(map[string]int),
		curPhase:   -1,
		aborted:    make(chan struct{}),
		allDone:    make(chan struct{}),
		rec:        cfg.Recorder,
		recPhase:   -1,
	}
	e.fast = fastEligible(cfg, e.faults)
	// The merge path clears registers through its touched list instead of
	// sweeping all K, so the registers must start empty; the serial resolvers
	// re-clear every cycle regardless.
	for c := range e.chWriter {
		e.chWriter[c] = -1
	}
	if !e.fast {
		e.genAct = make([]int32, 0, cfg.P)
	}
	e.stats.PerProc = make([]int64, cfg.P)
	e.stats.PerChannel = make([]int64, cfg.K)
	if cfg.Trace {
		e.trace = &Trace{}
	}
	for i := range e.live {
		e.live[i] = true
	}
	e.liveN = cfg.P
	e.mode = cfg.engineMode()
	e.barCond.L = &e.barMu
	if runtime.GOMAXPROCS(0) > 1 {
		// With real parallelism a short pure-spin window usually catches the
		// resolver finishing on another core; on a single-P runtime it would
		// only delay the resolver, so waiters go straight to yielding.
		e.busySpins = 96
	}
	if e.mode == EngineSharded {
		e.initShards()
	} else {
		e.expected.Store(int32(cfg.P))
	}

	var wg sync.WaitGroup
	if e.mode == EngineSharded {
		for w := range e.shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.workerRun(w, programs)
			}()
		}
	} else {
		for i := 0; i < cfg.P; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.runProc(&Proc{id: i, e: e}, programs[i])
			}()
		}
	}

	stall := cfg.StallTimeout
	if stall == 0 {
		stall = 30 * time.Second
	}
	timer := time.NewTicker(stall)
	defer timer.Stop()
	last := int64(-1)
	grace := cfg.AbortGrace
	if grace == 0 {
		grace = 2 * time.Second
	}
	// outcome resolves the final error once the engine is quiescent: an
	// injected crash-stop dominates any secondary abort it provoked (the
	// crash is the root cause; a "missing broadcast" Abortf downstream of a
	// dead processor is a symptom).
	outcome := func() error {
		if evs, first := e.faults.crashes(); len(evs) > 0 {
			procs := make([]int, len(evs))
			for i, ev := range evs {
				procs[i] = ev.Proc
			}
			return &CrashError{Procs: procs, Cycle: first}
		}
		return e.abortError()
	}
	ctxDone := ctx.Done()
	for {
		select {
		case <-ctxDone:
			// Cancelled from outside: fail the run with the caller's typed
			// cause when one was installed, then let the abort path below
			// collect the partial result. Nil the channel so this case fires
			// once.
			cause := context.Cause(ctx)
			if cause == nil || cause == ctx.Err() {
				cause = &AbortError{Proc: -1, VProc: -1, Msg: "context: " + ctx.Err().Error()}
			}
			e.abort(cause)
			ctxDone = nil
		case <-e.allDone:
			wg.Wait()
			e.finalize()
			return &Result{Stats: e.stats, Trace: e.trace}, outcome()
		case <-e.aborted:
			// Give processor goroutines a chance to unwind; those blocked in
			// local computation will hit the failed check on their next step.
			// A program spinning forever without issuing cycle ops cannot be
			// stopped; give up waiting after the grace period (its goroutine
			// leaks, but Run still reports the abort).
			unwound := make(chan struct{})
			go func() { wg.Wait(); close(unwound) }()
			select {
			case <-unwound:
				// Every goroutine unwound, so Stats is quiescent: return it
				// alongside the error. It covers completed cycles only.
				e.finalize()
				return &Result{Stats: e.stats, Trace: e.trace}, outcome()
			case <-time.After(grace):
				// A goroutine may still be running; touching Stats would race.
				return nil, e.abortError()
			}
		case <-timer.C:
			if c := e.cycles.Load(); c == last {
				e.abort(&StallError{Timeout: stall, Cycle: c, Stalled: e.stallDiagnostics()})
			} else {
				last = c
			}
		}
	}
}

// runProc runs prog as processor p — on its own goroutine (goroutine engine)
// or inside its worker's coroutine (sharded engine) — and leaves the
// lock-step protocol however the program ends.
func (e *engine) runProc(p *Proc, prog func(Node)) {
	if e.cfg.ProfileLabels {
		p.setProfileLabels("")
	}
	returned := false
	defer func() {
		r := recover()
		switch r := r.(type) {
		case nil:
			if !returned {
				// runtime.Goexit: the program abandoned the protocol without
				// returning. Under the sharded engine the Goexit unwinds the
				// owning worker too, so the run cannot go on without it.
				e.abort(&AbortError{Proc: p.id, VProc: -1, Msg: "program called runtime.Goexit"})
				return
			}
			// Normal return: leave the lock-step protocol.
			p.exit()
		case abortPanic:
			// Engine already failed; nobody waits for us.
		case crashPanic:
			// Injected crash-stop: the processor dies silently but leaves
			// the barrier protocol so the survivors keep running. The crash
			// is surfaced as a CrashError at the end of the run, not as an
			// immediate abort.
			p.exit()
		default:
			// Program bug: record it, then exit the protocol so the
			// remaining processors are not deadlocked.
			e.softErr(fmt.Errorf("%w: processor %d panicked: %v", ErrAborted, p.id, r))
			p.exit()
		}
	}()
	prog(p)
	returned = true
}

// RunUniform runs the same program on every processor; the program
// distinguishes processors via Proc.ID.
func RunUniform(cfg Config, program func(Node)) (*Result, error) {
	progs := make([]func(Node), cfg.P)
	for i := range progs {
		progs[i] = program
	}
	return Run(cfg, progs)
}
