// Package mcbnet is a faithful implementation of the multi-channel
// broadcast (MCB) network model and the distributed sorting and selection
// algorithms of Marberg and Gafni, "Sorting and Selection in Multi-Channel
// Broadcast Networks" (UCLA CSD-850002 / ICPP 1985).
//
// An MCB(p, k) network has p processors sharing k broadcast channels; in
// each synchronous cycle a processor may write one channel, read one
// channel, and compute locally. The package simulates the model exactly
// (counting the paper's two cost measures, cycles and messages) and provides
// the paper's algorithms over it:
//
//   - Sort: Columnsort-based distributed sorting — Theta(n) messages and
//     Theta(max{n/k, n_max}) cycles — with gathered-column, virtual-column
//     (memory-efficient), single-channel (Rank-Sort, Merge-Sort) and
//     recursive variants.
//   - Select: selection by rank via median-of-medians filtering —
//     Theta(p log(kn/p)) messages and Theta((p/k) log(kn/p)) cycles.
//
// This file re-exports the library's public surface; the implementation
// lives under internal/ (see DESIGN.md for the system inventory).
package mcbnet

import (
	"mcbnet/internal/checkpoint"
	"mcbnet/internal/core"
	"mcbnet/internal/mcb"
	"mcbnet/internal/trace"
	"mcbnet/internal/transport"
	"mcbnet/internal/transport/tcp"
)

// Sort options and results.
type (
	// SortOptions configures a distributed sort; see core.SortOptions.
	SortOptions = core.SortOptions
	// Report carries the model costs and diagnostics of a sort.
	Report = core.Report
	// Order selects descending (the paper's canonical order) or ascending.
	Order = core.Order
	// Algorithm names a sorting algorithm.
	Algorithm = core.Algorithm
)

// Selection options and results.
type (
	// SelectOptions configures a distributed selection.
	SelectOptions = core.SelectOptions
	// SelectReport carries the model costs and filtering diagnostics.
	SelectReport = core.SelectReport
	// SelectAlgorithm names a selection strategy.
	SelectAlgorithm = core.SelectAlgorithm
)

// Sorting order constants.
const (
	Descending = core.Descending
	Ascending  = core.Ascending
)

// Sorting algorithm constants.
const (
	AlgoAuto                = core.AlgoAuto
	AlgoColumnsortGather    = core.AlgoColumnsortGather
	AlgoColumnsortVirtual   = core.AlgoColumnsortVirtual
	AlgoRankSort            = core.AlgoRankSort
	AlgoMergeSort           = core.AlgoMergeSort
	AlgoColumnsortRecursive = core.AlgoColumnsortRecursive
)

// Selection algorithm constants.
const (
	SelFiltering    = core.SelFiltering
	SelSortBaseline = core.SelSortBaseline
)

// EngineMode selects the execution engine that steps the p processors of a
// run (SortOptions.Engine / SelectOptions.Engine). Both engines produce
// byte-identical reports; they differ only in how cycles are scheduled onto
// OS threads.
type EngineMode = mcb.EngineMode

// Execution engine constants.
const (
	// EngineAuto (the zero value) picks per run: sharded coordination once
	// p reaches the p >> cores regime, the classic barrier below it.
	EngineAuto = mcb.EngineAuto
	// EngineGoroutine coordinates all p processor goroutines through one
	// sense-reversing barrier — the classic engine, best when p is within a
	// small factor of the core count.
	EngineGoroutine = mcb.EngineGoroutine
	// EngineSharded rendezvouses ~GOMAXPROCS shard workers instead of p
	// processors; each worker steps its processors as coroutines and skips
	// those sleeping through IdleN batches, so a cycle costs O(active) — the
	// p >> cores engine (see DESIGN.md "Engine internals").
	EngineSharded = mcb.EngineSharded
)

// Failure plane: deterministic fault injection, the typed error taxonomy,
// and the verify-and-retry recovery layer (see internal/mcb and DESIGN.md
// §4 "Failure semantics").
type (
	// FaultPlan describes deterministic, seeded fault injection for a run:
	// message drops, payload corruption (optionally checksum-guarded),
	// channel outages and processor crash-stops.
	FaultPlan = mcb.FaultPlan
	// FaultOutage marks a channel dead over a cycle range.
	FaultOutage = mcb.Outage
	// FaultCrash schedules a processor crash-stop at a cycle.
	FaultCrash = mcb.Crash
	// FaultStats counts the faults injected during a run.
	FaultStats = mcb.FaultStats
	// RetryPolicy configures SortWithRetry / SelectWithRetry.
	RetryPolicy = mcb.RetryPolicy

	// CollisionError: two processors wrote one channel in one cycle (the
	// model's "computation fails").
	CollisionError = mcb.CollisionError
	// AbortError: a processor program detected an invariant violation and
	// aborted (carries the processor id, and the virtual id under
	// simulation).
	AbortError = mcb.AbortError
	// CrashError: one or more processors crash-stopped (fault injection).
	CrashError = mcb.CrashError
	// StallError: the lock-step protocol wedged; carries per-processor
	// last-issued-op diagnostics.
	StallError = mcb.StallError
	// BudgetError: a cycle-count or message-size budget was exceeded.
	BudgetError = mcb.BudgetError
	// CorruptionError: a run "succeeded" but its output failed
	// verification.
	CorruptionError = mcb.CorruptionError

	// SortVerifier / SelectVerifier are pluggable output checks for the
	// retry layer.
	SortVerifier   = core.SortVerifier
	SelectVerifier = core.SelectVerifier
)

// ErrAborted is wrapped by every typed abort error; errors.Is works
// against it.
var ErrAborted = mcb.ErrAborted

// Checkpointed recovery: with SortOptions.Checkpoints /
// SelectOptions.Checkpoints set, SortWithRetry and SelectWithRetry run the
// algorithms as phase segments, snapshotting the verified distributed state
// into the store at every phase boundary. A typed failure then resumes from
// the last accepted checkpoint (replaying only the failed segment), and with
// Resume set a new process continues a previous run from an on-disk store —
// see DESIGN.md §4 and the cmd/mcbsort -checkpoint-dir / -resume flags.
type (
	// CheckpointStore persists phase-boundary snapshots; implementations
	// must return isolated, checksum-verified copies.
	CheckpointStore = checkpoint.Store
	// CheckpointSnapshot is one phase-boundary state capture.
	CheckpointSnapshot = checkpoint.Snapshot
)

// ErrCheckpointInvalid is wrapped by every snapshot-decoding failure
// (truncation, bit flips, version or shape mismatches); errors.Is works
// against it.
var ErrCheckpointInvalid = checkpoint.ErrInvalid

// NewMemCheckpointStore returns an in-memory checkpoint store: recovery
// survives retry attempts within one process but not a process restart.
func NewMemCheckpointStore() CheckpointStore { return checkpoint.NewMem() }

// NewDirCheckpointStore returns an on-disk checkpoint store rooted at dir
// (created if needed): snapshots survive a process kill and a later
// invocation with SortOptions.Resume / SelectOptions.Resume continues from
// the last accepted phase boundary.
func NewDirCheckpointStore(dir string) (CheckpointStore, error) {
	return checkpoint.NewDir(dir)
}

// Cycle tracing: the structured observability plane (see internal/trace and
// DESIGN.md "Observability"). Attach a recorder via SortOptions.Recorder /
// SelectOptions.Recorder, then export the captured run as JSONL or
// Perfetto-loadable Chrome trace-event JSON.
type (
	// TraceRecorder collects fixed-size per-cycle events (writes, reads,
	// silences, idles, collisions, faults, phase switches) in preallocated
	// per-processor ring buffers; recording never allocates.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded cycle event.
	TraceEvent = trace.Event
	// TracePhaseSummary is the per-phase rollup (cycle range, channel
	// utilization, silences, collisions, fault counts) of a captured trace.
	TracePhaseSummary = trace.PhaseSummary
)

// NewTraceRecorder returns a recorder for an MCB(procs, channels) network
// holding up to eventsPerProc events per processor (oldest events are
// overwritten beyond that). Export with its WriteJSONL / WritePerfetto /
// Summaries methods after the run.
func NewTraceRecorder(procs, channels, eventsPerProc int) *TraceRecorder {
	return trace.New(procs, channels, eventsPerProc)
}

// Sort sorts a set distributed as inputs[i] at processor i over an
// MCB(len(inputs), opts.K) network, preserving per-processor cardinalities:
// under the default Descending order, processor 0 receives the largest
// elements. See core.Sort.
func Sort(inputs [][]int64, opts SortOptions) ([][]int64, *Report, error) {
	return core.Sort(inputs, opts)
}

// Select returns the element of descending rank opts.D (1 = maximum) of the
// distributed set. See core.Select.
func Select(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	return core.Select(inputs, opts)
}

// MultiSelect finds several ranks in one network computation (the filtering
// selections run back to back in lock-step); results are in the order of ds.
// See core.MultiSelect.
func MultiSelect(inputs [][]int64, ds []int, opts SelectOptions) ([]int64, *SelectReport, error) {
	return core.MultiSelect(inputs, ds, opts)
}

// SortWithRetry sorts like Sort but re-executes faulted runs under
// opts.Retry: an attempt is accepted only when the engine reports no error
// and the output passes verification (sortedness, cardinality preservation,
// multiset-permutation of the input — or opts.Verifier). See
// core.SortWithRetry.
func SortWithRetry(inputs [][]int64, opts SortOptions) ([][]int64, *Report, error) {
	return core.SortWithRetry(inputs, opts)
}

// SelectWithRetry selects like Select but re-executes faulted runs and
// verifies the answer by recount; with opts.Retry.DegradeOnCrash it degrades
// gracefully after processor crash-stops (the dead processors' elements are
// given up). See core.SelectWithRetry.
func SelectWithRetry(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	return core.SelectWithRetry(inputs, opts)
}

// VerifySort is the default sort verifier (exported for standalone audits).
func VerifySort(inputs, outputs [][]int64, order Order) error {
	return core.VerifySort(inputs, outputs, order)
}

// VerifySelect is the default selection verifier: rank check by recount.
func VerifySelect(inputs [][]int64, d int, value int64) error {
	return core.VerifySelect(inputs, d, value)
}

// Median selects the paper's median — the element of descending rank
// ceil(n/2) — of the distributed set.
func Median(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	opts.D = (n + 1) / 2
	return core.Select(inputs, opts)
}

// Batched entry points: several small jobs share one engine run, each on a
// disjoint (processor range, channel range) subnet of the network — the
// coalescing machinery behind the cmd/mcbd request batcher (see
// internal/core/batch.go and DESIGN.md §5 "Service layer").
type (
	// BatchJob is one job of a coalesced batch: an operation over its own
	// value set, with an optional per-job cycle budget.
	BatchJob = core.BatchJob
	// BatchResult is the per-job outcome; Batched reports whether a shared
	// run served it.
	BatchResult = core.BatchResult
	// BatchOptions fixes the network geometry and engine for a batch.
	BatchOptions = core.BatchOptions
	// BatchOp names the operation of a BatchJob.
	BatchOp = core.BatchOp
)

// Batch operation constants.
const (
	BatchSort        = core.BatchSort
	BatchTopK        = core.BatchTopK
	BatchMedian      = core.BatchMedian
	BatchRank        = core.BatchRank
	BatchMultiSelect = core.BatchMultiSelect
)

// RunBatch serves a set of jobs on one MCB(opts.P, opts.K) network,
// coalescing up to opts.K jobs per shared engine run (each job on a disjoint
// subnet). A typed failure of a shared run re-executes every job of that run
// individually, so one job's failure never poisons its siblings' answers.
// See core.RunBatch.
func RunBatch(jobs []BatchJob, opts BatchOptions) ([]BatchResult, error) {
	return core.RunBatch(jobs, opts)
}

// Transport layer: where the processor programs of a run execute (see
// internal/transport and DESIGN.md "Transport layer"). The default — a nil
// SortOptions.Transport / SelectOptions.Transport — is the in-process
// transport, byte-for-byte the classic fast path. The tcp transport splits
// one logical MCB network across OS processes: a sequencer process hosts
// the shared engine and each peer process runs a contiguous processor
// range against it over length-prefixed checksummed frames.
type (
	// Transport hosts the processor programs of engine runs; see
	// transport.Transport for the contract.
	Transport = transport.Transport
	// LocalTransport is the in-process transport (the default).
	LocalTransport = transport.Local
	// LinkError: a transport link failed (dial, read, write, frame
	// corruption, sequence gap). Retryable — errors.Is(err, ErrAborted).
	LinkError = transport.LinkError
	// FlakyOptions configures the deterministic fault-injecting connection
	// wrapper for transport chaos testing.
	FlakyOptions = transport.FlakyOptions

	// TCPClientOptions configures one peer process of a tcp transport
	// group; TCPSequencerOptions configures the sequencer process.
	TCPClientOptions    = tcp.ClientOptions
	TCPSequencerOptions = tcp.SequencerOptions
	// TCPPeerFile is the JSON group configuration of cmd/mcbpeer: the
	// sequencer address, the processor range of every peer, and declared
	// permanent channel cuts.
	TCPPeerFile = tcp.PeerFile
)

// NewTCPClient returns a Transport that runs this process's processor range
// [opts.Lo, opts.Hi) against the sequencer at opts.Addr.
func NewTCPClient(opts TCPClientOptions) (*tcp.Client, error) { return tcp.NewClient(opts) }

// NewTCPSequencer starts the engine-hosting process of a tcp transport
// group listening on opts.Addr; drive it with Serve.
func NewTCPSequencer(opts TCPSequencerOptions) (*tcp.Sequencer, error) { return tcp.NewSequencer(opts) }

// LoadTCPPeerFile reads and validates a peer-group configuration file.
func LoadTCPPeerFile(path string) (*TCPPeerFile, error) { return tcp.LoadPeerFile(path) }
