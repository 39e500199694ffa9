package core

import (
	"errors"
	"fmt"
	"time"

	"mcbnet/internal/mcb"
)

// This file is the algorithm-level verify-and-retry recovery layer. Each
// attempt runs on a fresh network (a new engine, fresh goroutines, fresh
// stall-watchdog baseline) under a per-attempt fault plan derived with
// mcb.FaultPlan.ForAttempt: stochastic faults strike elsewhere on a retry,
// scripted crashes and outages persist. A run is accepted only if it
// returned without an engine error AND its output passed verification;
// everything else is retried up to Retry.MaxAttempts times, so a faulted
// run is detected and re-executed rather than silently wrong.
//
// With a checkpoint store configured (SortOptions.Checkpoints /
// SelectOptions.Checkpoints), eligible algorithms run segmented instead:
// the drivers in sortseg.go and selectseg.go snapshot the distributed state
// at every phase boundary and resume from the last accepted one, replaying
// only the failed segment. Algorithms without a segmented path fall back to
// the whole-run loops below.

func retryAttempts(pol mcb.RetryPolicy) int {
	if pol.MaxAttempts < 1 {
		return 1
	}
	return pol.MaxAttempts
}

// retryBackoff sleeps before retry attempt a (1-based attempt index of the
// upcoming attempt). The schedule — capped exponential doubling with the
// policy's deterministic seeded jitter — is mcb.RetryPolicy.BackoffFor, the
// single implementation shared with the engine-level retry layer and the
// tcp transport's dial loop.
func retryBackoff(pol mcb.RetryPolicy, a int) {
	if a <= 0 {
		return
	}
	if d := pol.BackoffFor(a - 1); d > 0 {
		time.Sleep(d)
	}
}

// SortWithRetry sorts like Sort, but re-executes faulted runs: an attempt is
// accepted only when the engine reports no error and the output passes the
// verifier (default VerifySort: sortedness, cardinality preservation,
// multiset-permutation of the input). The returned Report carries the
// attempt count; on final failure the last attempt's error (typed, matching
// errors.As against the mcb taxonomy) and partial report are returned.
//
// With opts.Checkpoints set and a gathered-Columnsort run, the sort executes
// as phase segments with boundary snapshots and resume-from-checkpoint
// recovery (see sortCheckpointed). With Retry.DegradeOnOutage set, a failure
// attributable to scripted channel outages re-runs the sort on the k' < k
// surviving channels instead of hoping the channel heals.
func SortWithRetry(inputs [][]int64, opts SortOptions) ([][]int64, *Report, error) {
	if opts.Checkpoints != nil {
		outs, rep, err := sortCheckpointed(inputs, opts)
		if !errors.Is(err, errNotSegmentable) {
			return outs, rep, err
		}
		// No segmented path for this algorithm: whole-run attempts below.
	}
	verifier := opts.Verifier
	if verifier == nil {
		verifier = VerifySort
	}
	max := retryAttempts(opts.Retry)
	cs := newChanState(opts.K, opts.Faults)
	var (
		lastRep  *Report
		lastErr  error
		replayed int64
	)
	for a := 0; a < max; a++ {
		retryBackoff(opts.Retry, a)
		aopts := opts
		aopts.K = cs.k()
		plan := cs.curPlan.ForAttempt(a)
		aopts.Faults = plan
		outs, rep, err := Sort(inputs, aopts)
		if rep != nil {
			rep.Attempts = a + 1
			rep.ReplayedCycles = replayed
			if len(cs.deadOrig) > 0 {
				rep.DegradedK = cs.k()
				rep.DeadChannels = append([]int(nil), cs.deadOrig...)
			}
			lastRep = rep
		}
		if err != nil {
			lastErr = err
			if rep != nil {
				replayed += rep.Stats.Cycles
			}
			if !mcb.Retryable(err) {
				return nil, lastRep, err
			}
			degradeOnSuspects(opts.Retry, cs, plan, rep)
			continue
		}
		if verr := verifier(inputs, outs, opts.Order); verr != nil {
			lastErr = corruptionError("sort", verr)
			replayed += rep.Stats.Cycles
			continue
		}
		return outs, rep, nil
	}
	return nil, lastRep, lastErr
}

// degradeOnSuspects applies the k' < k channel degradation to a failed plain
// (non-checkpointed) attempt: when the failure is attributable to scripted
// outages, the suspect channels are dropped so the next attempt runs on the
// survivors.
func degradeOnSuspects(pol mcb.RetryPolicy, cs *chanState, plan *mcb.FaultPlan, stats interface {
	faultStats() (*mcb.FaultStats, int64)
}) {
	if !pol.DegradeOnOutage || stats == nil {
		return
	}
	fs, cycles := stats.faultStats()
	if fs == nil {
		return
	}
	suspects := mcb.OutageSuspects(plan, fs, cycles)
	if len(suspects) > 0 && cs.k()-len(suspects) >= 1 {
		cs.degrade(suspects)
	}
}

// faultStats exposes the engine fault counters of a (possibly partial)
// report to the degradation logic.
func (r *Report) faultStats() (*mcb.FaultStats, int64) {
	if r == nil {
		return nil, 0
	}
	return &r.Stats.Faults, r.Stats.Cycles
}

func (r *SelectReport) faultStats() (*mcb.FaultStats, int64) {
	if r == nil {
		return nil, 0
	}
	return &r.Stats.Faults, r.Stats.Cycles
}

// SelectWithRetry selects like Select, but re-executes faulted runs and
// verifies every accepted answer by recount (default VerifySelect). With
// Retry.DegradeOnCrash set it additionally degrades gracefully: after a
// CrashError, the next attempt treats the crashed processors as empty — the
// protocols are silence-tolerant, so the computation proceeds without them
// and answers rank opts.D over the surviving elements. The report lists the
// processors given up on in DeadProcs.
//
// With opts.Checkpoints set and the filtering algorithm, the selection runs
// as per-iteration segments with boundary snapshots (see selectCheckpointed).
// With Retry.DegradeOnOutage set, outage-attributable failures drop the dead
// channels and continue on the survivors.
func SelectWithRetry(inputs [][]int64, opts SelectOptions) (int64, *SelectReport, error) {
	if opts.Checkpoints != nil {
		val, rep, err := selectCheckpointed(inputs, opts)
		if !errors.Is(err, errNotSegmentable) {
			return val, rep, err
		}
	}
	verifier := opts.Verifier
	if verifier == nil {
		verifier = VerifySelect
	}
	max := retryAttempts(opts.Retry)
	cur := inputs
	cs := newChanState(opts.K, opts.Faults)
	var (
		dead     []int
		lastRep  *SelectReport
		lastErr  error
		replayed int64
	)
	for a := 0; a < max; a++ {
		retryBackoff(opts.Retry, a)
		aopts := opts
		aopts.K = cs.k()
		plan := cs.curPlan.ForAttempt(a)
		aopts.Faults = plan
		val, rep, err := Select(cur, aopts)
		if rep != nil {
			rep.Attempts = a + 1
			rep.ReplayedCycles = replayed
			rep.DeadProcs = append([]int(nil), dead...)
			if len(cs.deadOrig) > 0 {
				rep.DegradedK = cs.k()
				rep.DeadChannels = append([]int(nil), cs.deadOrig...)
			}
			lastRep = rep
		}
		if err != nil {
			lastErr = err
			if rep != nil {
				replayed += rep.Stats.Cycles
			}
			var ce *mcb.CrashError
			if opts.Retry.DegradeOnCrash && errors.As(err, &ce) {
				// Give the dead processors up: their elements are lost; the
				// next attempt runs with them empty and without their
				// scheduled crashes (the degraded run models restarted,
				// empty replacements).
				cur = emptyProcs(cur, ce.Procs)
				dead = mergeProcs(dead, ce.Procs)
				cs.curPlan = cs.curPlan.WithoutCrashes(ce.Procs)
				remaining := 0
				for _, in := range cur {
					remaining += len(in)
				}
				if opts.D > remaining {
					return 0, lastRep, fmt.Errorf("core: graceful degradation lost too many elements: rank %d > %d survivors: %w", opts.D, remaining, err)
				}
				continue
			}
			if !mcb.Retryable(err) {
				return 0, lastRep, err
			}
			degradeOnSuspects(opts.Retry, cs, plan, rep)
			continue
		}
		if verr := verifier(cur, opts.D, val); verr != nil {
			lastErr = corruptionError("select", verr)
			replayed += rep.Stats.Cycles
			continue
		}
		return val, rep, nil
	}
	return 0, lastRep, lastErr
}

// emptyProcs returns a copy of inputs with the given processors' lists
// emptied (the processor count is unchanged: the protocols accept empty
// processors).
func emptyProcs(inputs [][]int64, procs []int) [][]int64 {
	out := append([][]int64(nil), inputs...)
	for _, id := range procs {
		if id >= 0 && id < len(out) {
			out[id] = nil
		}
	}
	return out
}

// mergeProcs unions two processor-id lists, keeping increasing order.
func mergeProcs(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, lists := range [2][]int{a, b} {
		for _, id := range lists {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
