package main

import (
	"bytes"
	"runtime"
	"strings"
	"time"

	"mcbnet"
	"mcbnet/internal/matrix"
	"mcbnet/internal/mcb"
	"mcbnet/internal/schedule"
	"mcbnet/internal/seq"
)

// detectEngine runs fn and reports which execution engine stepped it, read
// from goroutine stacks sampled while fn runs: the sharded engine's shard
// workers, or the goroutine engine's per-processor barrier wait. It returns
// "unknown" if fn ended before either showed.
func detectEngine(fn func()) string {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	buf := make([]byte, 16<<20)
	found := "unknown"
	for {
		select {
		case <-done:
			return found
		case <-time.After(2 * time.Millisecond):
		}
		if found != "unknown" {
			continue
		}
		st := buf[:runtime.Stack(buf, true)]
		switch {
		case bytes.Contains(st, []byte("mcb.(*engine).workerRun")):
			found = string(mcb.EngineSharded)
		case bytes.Contains(st, []byte("mcb.(*engine).await")):
			found = string(mcb.EngineGoroutine)
		}
	}
}

// engineNsPerCycle times one short mcb.EngineBench run with the given
// traffic shape on an MCB(p, k) network under the given engine. The
// machine's speed drifts by up to 2x over seconds, so a traced run probes
// next to the ops each probe explains rather than once up front.
func engineNsPerCycle(engine, shape string, p, k int) (float64, error) {
	cycles := int64(1024)
	if shape == mcb.BenchSparse {
		cycles = 4096
	}
	e, err := mcb.EngineBench(mcb.EngineMode(engine), shape, p, k, cycles)
	if err != nil {
		return 0, err
	}
	return e.NsPerCycle, nil
}

// randSlice returns n pseudo-random values.
func randSlice(n int, seed uint64) []int64 {
	r := rng(seed, n)
	s := make([]int64, n)
	for i := range s {
		s[i] = r.Int63()
	}
	return s
}

// seqNsPerElem times fn on fresh copies of a random slice of n values,
// repeating until about budget has passed, and returns ns per element.
func seqNsPerElem(n int, budget time.Duration, fn func([]int64)) float64 {
	src := randSlice(n, 7)
	buf := make([]int64, n)
	var spent time.Duration
	reps := 0
	for spent < budget {
		copy(buf, src)
		t := time.Now()
		fn(buf)
		spent += time.Since(t)
		reps++
	}
	return float64(spent.Nanoseconds()) / float64(reps*n)
}

func sortNsPerElem(n int) float64 {
	return seqNsPerElem(n, 30*time.Millisecond, seq.SortInt64Desc)
}

func selectNsPerElem(n int) float64 {
	return seqNsPerElem(n, 30*time.Millisecond, func(s []int64) { seq.KthLargest(s, (len(s)+1)/2) })
}

// transformKinds returns the Columnsort transforms a run's phases name, in
// order ("phase2:transpose" -> KindTranspose).
func transformKinds(phases []phase) []schedule.TransformKind {
	var out []schedule.TransformKind
	for _, ph := range phases {
		i := strings.IndexByte(ph.name, ':')
		if i < 0 {
			continue
		}
		if kind, ok := schedule.KindOf(ph.name[i+1:]); ok {
			out = append(out, kind)
		}
	}
	return out
}

// scheduleBuildMs is the median over three rounds of building, cold, every
// transform schedule the run used on its Columnsort shape.
func scheduleBuildMs(r *opResult) float64 {
	kinds := transformKinds(r.phases)
	if len(kinds) == 0 {
		return 0
	}
	sh := matrix.Shape{M: r.columnLen, K: r.columns}
	var rounds []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		for _, k := range kinds {
			schedule.ForTransform(sh, k)
		}
		rounds = append(rounds, ms(time.Since(t)))
	}
	return median(rounds)
}

// seqEstimateMs estimates the local-compute time of one op from the seq
// probe: one column sort per representative per Columnsort sort phase (one
// more than the transforms), or one local median per processor per
// filtering phase for a selection.
func seqEstimateMs(w *libWorkload, r *opResult, sortNs, selectNs float64) float64 {
	if r.columnLen > 0 {
		sorts := len(transformKinds(r.phases)) + 1
		return float64(sorts*r.columns*r.columnLen) * sortNs / 1e6
	}
	filters := 0
	for _, ph := range r.phases {
		if strings.HasPrefix(ph.name, "select:filter") {
			filters++
		}
	}
	return float64(filters*w.n) * selectNs / 1e6
}

// runBatchMs is the median wall time of five mcbnet.RunBatch calls serving
// jobs top-k jobs at once on the service's pool geometry, and the cycles of
// the run.
func runBatchMs(jobs, p, k, n, topK int) (float64, int64, error) {
	batch := make([]mcbnet.BatchJob, jobs)
	for j := range batch {
		batch[j] = mcbnet.BatchJob{Op: mcbnet.BatchTopK, Values: randSlice(n, uint64(j)), TopK: topK}
	}
	var times []float64
	var cycles int64
	for len(times) < 5 {
		t := time.Now()
		res, err := mcbnet.RunBatch(batch, mcbnet.BatchOptions{P: p, K: k})
		times = append(times, ms(time.Since(t)))
		if err != nil {
			return 0, 0, err
		}
		for _, r := range res {
			if r.Err != nil {
				return 0, 0, r.Err
			}
		}
		cycles = res[0].Cycles
	}
	return median(times), cycles, nil
}
