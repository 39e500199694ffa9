package main

import (
	"fmt"
	"sync"
	"time"

	"mcbnet"
	"mcbnet/internal/checkpoint"
	"mcbnet/internal/dist"
)

// libWorkload is a closed loop of one caller over one mcbnet facade call.
type libWorkload struct {
	n, p, k int
	gen     func(seed uint64, i int) [][]int64
	// do runs op i on in; store is non-nil only for checkpointed workloads.
	do     func(in [][]int64, i int, store checkpoint.Store) (*opResult, error)
	verify func(in [][]int64, r *opResult) error
	// checkpointed workloads get a fresh store per op.
	checkpointed bool
	shape        string // mcb.EngineBench traffic shape that models the run
}

// opResult is what one library call returned, reduced to what the
// benchmark checks and reports.
type opResult struct {
	sorted    [][]int64
	value     int64
	cycles    int64
	messages  int64
	replayed  int64
	attempts  int
	resumes   int
	drops     int64
	algo      string
	columns   int
	columnLen int
	phases    []phase
}

type phase struct {
	name   string
	cycles int64
}

// rng derives the generator of op i from the workload seed, so op i's
// inputs depend only on (seed, i). Seed and index each pass through the
// splitmix output function, so nearby seeds do not give streams that are
// shifted copies of one another.
func rng(seed uint64, i int) *dist.RNG {
	h := dist.NewRNG(dist.NewRNG(seed).Next() + uint64(i))
	return dist.NewRNG(h.Next())
}

func sortResult(out [][]int64, rep *mcbnet.Report) *opResult {
	r := &opResult{
		sorted:    out,
		cycles:    rep.Stats.Cycles,
		messages:  rep.Stats.Messages,
		replayed:  rep.ReplayedCycles,
		attempts:  rep.Attempts,
		resumes:   rep.Resumes,
		drops:     rep.Stats.Faults.Drops,
		algo:      rep.Algorithm.String(),
		columns:   rep.Columns,
		columnLen: rep.ColumnLen,
	}
	for _, ph := range rep.PhaseCycles {
		r.phases = append(r.phases, phase{ph.Label, ph.Cycles})
	}
	return r
}

func evenSortInputs(seed uint64, i int) [][]int64 {
	return dist.Values(rng(seed, i), dist.Even(4096, 64))
}

func verifySorted(in [][]int64, r *opResult) error {
	return mcbnet.VerifySort(in, r.sorted, mcbnet.Descending)
}

// sortP64: dense traffic; every processor steps every cycle.
var sortP64 = &libWorkload{
	n: 4096, p: 64, k: 8,
	gen: evenSortInputs,
	do: func(in [][]int64, _ int, _ checkpoint.Store) (*opResult, error) {
		out, rep, err := mcbnet.Sort(in, mcbnet.SortOptions{K: 8})
		if err != nil {
			return nil, err
		}
		return sortResult(out, rep), nil
	},
	verify: verifySorted,
	shape:  "writeread",
}

// sortRecover: sortP64's inputs through the checkpointed retry layer under
// seeded message drops. Op i's fault plan depends on i alone, not on the
// workload seed: Columnsort's traffic does not depend on the values, so
// every seed then does the same recovery work and the seed varies only the
// values sorted.
var sortRecover = &libWorkload{
	n: 4096, p: 64, k: 8,
	gen: evenSortInputs,
	do: func(in [][]int64, i int, store checkpoint.Store) (*opResult, error) {
		out, rep, err := mcbnet.SortWithRetry(in, mcbnet.SortOptions{
			K:           8,
			Checkpoints: store,
			Retry:       mcbnet.RetryPolicy{MaxAttempts: 16},
			Faults:      &mcbnet.FaultPlan{DropRate: 1e-4, Seed: rng(0, i).Next()},
		})
		if err != nil {
			return nil, err
		}
		return sortResult(out, rep), nil
	},
	verify:       verifySorted,
	checkpointed: true,
	shape:        "writeread",
}

// selectP1024: filtering selection of the median on a large network.
var selectP1024 = &libWorkload{
	n: 1024, p: 1024, k: 16,
	gen: func(seed uint64, i int) [][]int64 {
		r := rng(seed, i)
		return dist.Values(r, dist.RandomComposition(r, 1024, 1024))
	},
	do: func(in [][]int64, _ int, _ checkpoint.Store) (*opResult, error) {
		v, rep, err := mcbnet.Median(in, mcbnet.SelectOptions{K: 16})
		if err != nil {
			return nil, err
		}
		r := &opResult{
			value:    v,
			cycles:   rep.Stats.Cycles,
			messages: rep.Stats.Messages,
			drops:    rep.Stats.Faults.Drops,
			algo:     fmt.Sprint(rep.Algorithm),
		}
		for _, ph := range rep.Stats.Phases {
			r.phases = append(r.phases, phase{ph.Name, ph.Cycles})
		}
		return r, nil
	},
	verify: func(in [][]int64, r *opResult) error {
		return mcbnet.VerifySelect(in, (1024+1)/2, r.value)
	},
	shape: "sparse",
}

// timedStore wraps the checkpoint store handed to SortWithRetry and times
// every Save and Latest call, recording each as a span under the op.
type timedStore struct {
	mem         *checkpoint.MemStore
	rec         *Recorder
	parent, req int64

	mu             sync.Mutex
	saves, latests []time.Duration
}

func (s *timedStore) Save(sn *checkpoint.Snapshot) error {
	sp := s.rec.start("checkpoint.save", s.parent, s.req)
	t := time.Now()
	err := s.mem.Save(sn)
	d := time.Since(t)
	sp.end()
	s.mu.Lock()
	s.saves = append(s.saves, d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) Latest() (*checkpoint.Snapshot, error) {
	sp := s.rec.start("checkpoint.latest", s.parent, s.req)
	t := time.Now()
	sn, err := s.mem.Latest()
	d := time.Since(t)
	sp.end()
	s.mu.Lock()
	s.latests = append(s.latests, d)
	s.mu.Unlock()
	return sn, err
}

func (s *timedStore) Clear() error { return s.mem.Clear() }

// bytes is the total encoded size of every snapshot saved so far.
func (s *timedStore) bytes() int {
	n := 0
	for _, b := range s.mem.History() {
		n += len(b)
	}
	return n
}

// libOp is one measured call.
type libOp struct {
	dur   time.Duration
	res   *opResult
	err   error // the call failed, or *errWrong: its answer was wrong
	span  int64
	store *timedStore
	// ticks are the CPU ticks that passed while the op ran (see
	// stealLimit).
	ticks ticks
}

// runOps runs ops 1, 2, ... (op 0 is the warm-up) until d has passed, at
// least one op, extended for disturbed ops (see stealLimit).
func (w *libWorkload) runOps(seed uint64, d time.Duration) []libOp {
	var ops []libOp
	start := time.Now()
	budget, limit := d, time.Duration(maxStretch*float64(d))
	for i := 1; len(ops) == 0 || time.Since(start) < budget; i++ {
		t, k := time.Now(), readTicks()
		op := w.runOne(seed, i, nil)
		if op.ticks = readTicks().minus(k); op.ticks.share() > stealLimit {
			budget = min(budget+time.Since(t), limit)
		}
		ops = append(ops, op)
	}
	return ops
}

// runOne runs op i, timing only the facade call; inputs are generated and
// the answer verified outside the timed region. With a non-nil recorder the
// call is a span and a checkpoint store is timed.
func (w *libWorkload) runOne(seed uint64, i int, rec *Recorder) libOp {
	in := w.gen(seed, i)
	var op libOp
	var store checkpoint.Store
	sp := rec.start("core.op", 0, int64(i))
	if w.checkpointed {
		mem := checkpoint.NewMem()
		store = mem
		if rec != nil {
			op.store = &timedStore{mem: mem, rec: rec, parent: sp.id(), req: int64(i)}
			store = op.store
		}
	}
	t := time.Now()
	op.res, op.err = w.do(in, i, store)
	op.dur = time.Since(t)
	sp.end()
	op.span = sp.id()
	if op.err == nil {
		if err := w.verify(in, op.res); err != nil {
			op.err = &errWrong{err.Error()}
		}
	}
	return op
}
