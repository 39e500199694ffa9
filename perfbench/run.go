package main

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// outcome is what one benchmark run reports.
type outcome struct {
	attempted, failed int
	wrong             int // answers the oracle rejected (a subset of failed)
	firstErr          error
	metrics           map[string]float64
	info              map[string]any // extra figures for the run's artifact
	engine, algo      string
	spans             []Span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

// errWrong marks an answer that failed the oracle.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return "wrong answer: " + e.msg }

func (o *outcome) fail(err error) {
	o.failed++
	var wrong *errWrong
	if errors.As(err, &wrong) {
		o.wrong++
	}
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// latencies returns per-request latencies in ms; a failed request counts
// as missing every latency limit (+Inf).
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.err == nil {
			out[i] = ms(s.latency())
		}
	}
	return out
}

// tail records the highest percentile with at least ten samples beyond it,
// p90 or p99, in the run's artifact.
func (o *outcome) tail(lat []float64) {
	o.info["samples"] = len(lat)
	if len(lat) >= 100 {
		o.info["latency_p90_ms"] = quantile(lat, 0.90)
	}
	if len(lat) >= 1000 {
		o.info["latency_p99_ms"] = quantile(lat, 0.99)
	}
}

// ---- library workloads ----

// warmLib runs op 0 unmeasured, reading the engine that steps it.
func warmLib(w *libWorkload, seed uint64, o *outcome) (*opResult, error) {
	var op libOp
	o.engine = detectEngine(func() { op = w.runOne(seed, 0, nil) })
	if op.err != nil {
		return nil, fmt.Errorf("warm-up op: %w", op.err)
	}
	o.algo = op.res.algo
	return op.res, nil
}

func (o *outcome) countOps(ops []libOp) {
	for _, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail(op.err)
		}
	}
}

func runLibE2E(w *libWorkload, seed uint64, d time.Duration) (*outcome, error) {
	o := newOutcome()
	if _, err := warmLib(w, seed, o); err != nil {
		return nil, err
	}
	ops := w.runOps(seed, d)
	o.countOps(ops)
	steal := make([]float64, len(ops))
	for i, op := range ops {
		steal[i] = op.ticks.share()
	}
	o.info["disturbed"] = disturbed(steal)
	var timed []libOp
	var tk []ticks
	for _, i := range timedSubset(steal) {
		timed = append(timed, ops[i])
		tk = append(tk, ops[i].ticks)
	}
	var lat []float64
	var busy time.Duration
	var cycles, msgs float64
	ok := 0
	for _, op := range timed {
		if op.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		lat = append(lat, ms(op.dur))
		busy += op.dur
		cycles += float64(op.res.cycles)
		msgs += float64(op.res.messages)
	}
	o.timing(median(lat), ratio(float64(ok*w.n), busy.Seconds()), unstolen(tk), false)
	o.metrics["cycles_per_op"] = ratio(cycles, float64(ok))
	o.metrics["messages_per_op"] = ratio(msgs, float64(ok))
	o.tail(lat)
	return o, nil
}

// timing reports the latency and throughput measured with the CPU share
// kept (see unstolen), keeping the raw figures in the run's artifact. An
// open loop's throughput is its offered rate and is not scaled.
func (o *outcome) timing(latency, elemsPerS, kept float64, openLoop bool) {
	o.info["raw.latency_p50_ms"], o.info["raw.elems_per_s"], o.info["unstolen"] = latency, elemsPerS, kept
	o.metrics["latency_p50_ms"] = latency * kept
	o.metrics["elems_per_s"] = elemsPerS
	if !openLoop {
		o.metrics["elems_per_s"] = elemsPerS / kept
	}
}

func runLibLayers(w *libWorkload, seed uint64, d time.Duration) (*outcome, error) {
	o := newOutcome()
	r0, err := warmLib(w, seed, o)
	if err != nil {
		return nil, err
	}
	m := o.metrics
	var sortNs, selNs float64
	if r0.columnLen > 0 {
		sortNs = sortNsPerElem(r0.columnLen)
		m["seq.sort_ns_per_elem"] = sortNs
	} else {
		selNs = selectNsPerElem(w.n / w.p)
		m["seq.select_ns_per_elem"] = selNs
	}
	m["schedule.build_ms"] = scheduleBuildMs(r0)
	for _, ph := range r0.phases {
		m["core.phase_cycles."+metricName(ph.name)] = float64(ph.cycles)
	}

	// Every op runs twice on the same inputs, untraced then traced: the
	// untraced copies are the baseline for the tracing overhead. An engine
	// probe precedes each pair.
	rec := newRecorder()
	var plain, traced []libOp
	var engNs []float64
	var busy procDelta
	deadline := time.Now().Add(d)
	for i := 1; len(plain) == 0 || time.Now().Before(deadline); i++ {
		ns, err := engineNsPerCycle(o.engine, w.shape, w.p, w.k)
		if err != nil {
			return nil, err
		}
		engNs = append(engNs, ns)
		a := readProc()
		plain = append(plain, w.runOne(seed, i, nil))
		traced = append(traced, w.runOne(seed, i, rec))
		busy.add(a, readProc())
	}
	busy.report(len(plain)+len(traced), m)
	m["mcb.engine_ns_per_cycle"] = median(engNs)
	o.countOps(plain)
	o.countOps(traced)
	o.spans = rec.Spans()
	self := selfTimes(o.spans)

	var plainLat, tracedLat, nsPerCycle, saveUs, latestUs []float64
	for _, op := range plain {
		if op.err == nil {
			plainLat = append(plainLat, ms(op.dur))
		}
	}
	var acc accounting
	var sumCycles, sumReplayed, sumMsgs, drops, attempts, resumes, saves, ckptBytes, seqEst float64
	n := 0
	for j, op := range traced {
		if op.err != nil {
			continue
		}
		n++
		r := op.res
		opMs := ms(op.dur)
		tracedLat = append(tracedLat, opMs)
		exec := float64(r.cycles + r.replayed)
		nsPerCycle = append(nsPerCycle, float64(op.dur.Nanoseconds())/exec)
		sumCycles += float64(r.cycles)
		sumReplayed += float64(r.replayed)
		sumMsgs += float64(r.messages)
		drops += float64(r.drops)
		attempts += float64(max(r.attempts, 1))
		resumes += float64(r.resumes)

		opSelf := ms(self[op.span])
		mcbMs := exec * engNs[j] / 1e6
		seqMs := seqEstimateMs(w, r, sortNs, selNs) * exec / float64(r.cycles)
		seqEst += seqMs
		acc.add(opMs, map[string]float64{
			"checkpoint": opMs - opSelf,
			"mcb":        mcbMs,
			"seq":        seqMs,
			"core":       opSelf - mcbMs - seqMs,
		})
		if op.store != nil {
			saves += float64(len(op.store.saves))
			ckptBytes += float64(op.store.bytes())
			for _, s := range op.store.saves {
				saveUs = append(saveUs, float64(s.Nanoseconds())/1e3)
			}
			for _, s := range op.store.latests {
				latestUs = append(latestUs, float64(s.Nanoseconds())/1e3)
			}
		}
	}
	if n == 0 {
		return o, nil
	}
	fn := float64(n)
	m["mcb.ns_per_cycle"] = median(nsPerCycle)
	m["mcb.utilization"] = sumMsgs / (sumCycles * float64(w.k))
	m["mcb.fault_drops_per_op"] = drops / fn
	m["core.attempts_per_op"] = attempts / fn
	m["core.resumes_per_op"] = resumes / fn
	m["core.replayed_cycle_ratio"] = sumReplayed / (sumCycles + sumReplayed)
	m["seq.est_share"] = seqEst / acc.total
	m["checkpoint.saves_per_op"] = saves / fn
	m["checkpoint.save_us_p50"] = median(saveUs)
	m["checkpoint.latest_us_p50"] = median(latestUs)
	m["checkpoint.bytes_per_save"] = ratio(ckptBytes, saves)
	acc.report(n, m)
	m["core.self_ms"] = m["layer_ms.core"]
	m["mcb.engine_share"] = acc.parts["mcb"] / acc.total
	m["bench.trace_overhead_ratio"] = median(tracedLat)/median(plainLat) - 1
	return o, nil
}

// accounting splits measured time into per-layer parts. Parts derived from
// estimates can come out negative for one op; over a run they cancel unless
// an estimate is biased. A layer whose total is negative is clamped to zero,
// so the clamped totals over-cover the measured time by the closure gap.
type accounting struct {
	total float64
	parts map[string]float64
}

func (a *accounting) add(total float64, parts map[string]float64) {
	if a.parts == nil {
		a.parts = map[string]float64{}
	}
	a.total += total
	for k, v := range parts {
		a.parts[k] += v
	}
}

// gap is how far the clamped layer totals overshoot the measured total, as
// a share of it.
func (a *accounting) gap() float64 {
	var sum float64
	for _, v := range a.parts {
		sum += max(v, 0)
	}
	return max(ratio(sum-a.total, a.total), 0) // below 0 only by rounding
}

// report writes the mean per-op part of every layer (layer_ms.*), clamped
// at zero, the mean total, and the closure gap.
func (a *accounting) report(n int, m map[string]float64) {
	for k, v := range a.parts {
		m["layer_ms."+k] = max(v, 0) / float64(n)
	}
	m["layer_ms.total"] = a.total / float64(n)
	m["trace.closure_gap"] = a.gap()
}

// ---- service workloads ----

// warmService sends requests for a moment so the pool, the connections
// and the schedule cache are warm, reading the engine that serves them.
func warmService(rig *serviceRig, seed uint64, o *outcome) error {
	var ph *phaseRun
	o.engine = detectEngine(func() { ph = rig.load(seed, 1<<30, 0, 300*time.Millisecond) })
	o.algo = "runbatch-topk"
	for _, s := range ph.samples {
		if s.err != nil {
			return fmt.Errorf("warm-up request: %w", s.err)
		}
	}
	return nil
}

func (o *outcome) countSamples(ph *phaseRun) {
	for _, s := range ph.samples {
		o.attempted++
		if s.err != nil {
			o.fail(s.err)
		}
	}
}

func runServiceE2E(w *workload, seed uint64, d time.Duration) (o *outcome, err error) {
	rig, err := startService(false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rig.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	o = newOutcome()
	if err := warmService(rig, seed, o); err != nil {
		return nil, err
	}
	// One-second chunks, so a chunk the hypervisor disturbed (see
	// stealLimit) can be left out of the timing and made up for.
	var chunks []*phaseRun
	var chunkTicks []ticks
	var steal []float64
	budget, limit := d, time.Duration(maxStretch*float64(d))
	next := 0
	for start := time.Now(); len(chunks) == 0 || time.Since(start) < budget; {
		k := readTicks()
		ph := rig.load(seed, next, w.rate, time.Second)
		next += len(ph.samples)
		chunks = append(chunks, ph)
		o.countSamples(ph)
		t := readTicks().minus(k)
		chunkTicks, steal = append(chunkTicks, t), append(steal, t.share())
		if t.share() > stealLimit {
			budget = min(budget+time.Second, limit)
		}
	}
	o.info["disturbed"] = disturbed(steal)
	var timed []*phaseRun
	var tk []ticks
	for _, i := range timedSubset(steal) {
		timed = append(timed, chunks[i])
		tk = append(tk, chunkTicks[i])
	}
	var samples []sample
	var late []time.Duration
	var cycles, msgs, ok float64
	var span time.Duration
	for _, ph := range timed {
		samples = append(samples, ph.samples...)
		late = append(late, ph.late...)
		for _, rec := range ph.recs {
			cycles += float64(rec.resp.Cycles)
			msgs += float64(rec.resp.Messages)
			ok++
		}
		var chunk time.Duration
		for _, s := range ph.samples {
			chunk = max(chunk, s.done.Sub(ph.samples[0].due))
		}
		span += chunk
	}
	lat := latencies(samples)
	o.timing(median(lat), ratio(ok*topKN, span.Seconds()), unstolen(tk), w.rate > 0)
	o.metrics["cycles_per_op"] = ratio(cycles, ok)
	o.metrics["messages_per_op"] = ratio(msgs, ok)
	o.tail(lat)
	o.generatorLateness(late)
	return o, nil
}

// generatorLateness reports how late the open-loop dispatcher released
// requests (bench.gen_late_*); 0 for a closed loop.
func (o *outcome) generatorLateness(lateness []time.Duration) {
	late := make([]float64, len(lateness))
	for i, l := range lateness {
		late[i] = ms(l)
	}
	o.metrics["bench.gen_late_p90_ms"] = quantile(late, 0.90)
	o.metrics["bench.gen_late_max_ms"] = quantile(late, 1)
	o.info["bench.gen_late_p90_ms"] = o.metrics["bench.gen_late_p90_ms"]
	o.info["bench.gen_late_max_ms"] = o.metrics["bench.gen_late_max_ms"]
}

func runServiceLayers(w *workload, seed uint64, d time.Duration) (o *outcome, err error) {
	o = newOutcome()
	m := o.metrics
	rig, err := startService(true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rig.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	if err := warmService(rig, seed, o); err != nil {
		return nil, err
	}
	cfg := rig.srv.Pool().Config()

	// The load runs in one-second chunks, each after probes of the engine
	// and of RunBatch that explain that chunk's requests. Even requests
	// are traced, odd ones not: the odd ones are the baseline for the
	// tracing overhead.
	type chunk struct {
		ph            *phaseRun
		engNs, b1, b2 float64
	}
	var (
		chunks                []chunk
		engNs, b1s, b2s, nspc []float64
		late                  []time.Duration
		busy                  procDelta
		requests              int
	)
	rig.rec.Store(newRecorder())
	st0 := rig.srv.Pool().Stats()
	stop := sampleQueueDepth(rig)
	for start := time.Now(); len(chunks) == 0 || time.Since(start) < d; {
		ns, err := engineNsPerCycle(o.engine, "writeread", cfg.P, cfg.K)
		if err != nil {
			stop()
			return nil, err
		}
		b1, c1, err := runBatchMs(1, cfg.P, cfg.K, topKN, topK)
		if err != nil {
			stop()
			return nil, err
		}
		b2, _, err := runBatchMs(2, cfg.P, cfg.K, topKN, topK)
		if err != nil {
			stop()
			return nil, err
		}
		engNs, b1s, b2s = append(engNs, ns), append(b1s, b1), append(b2s, b2)
		nspc = append(nspc, b1*1e6/float64(c1))
		a := readProc()
		ph := rig.load(seed, requests, w.rate, time.Second)
		busy.add(a, readProc())
		requests += len(ph.samples)
		chunks = append(chunks, chunk{ph, ns, b1, b2})
		late = append(late, ph.late...)
		o.countSamples(ph)
	}
	maxDepth := stop()
	st1 := rig.srv.Pool().Stats()
	busy.report(requests, m)
	o.generatorLateness(late)
	o.spans = rig.rec.Load().Spans()
	m["mcb.engine_ns_per_cycle"] = median(engNs)
	m["core.runbatch_ms.b1"], m["core.runbatch_ms.b2"] = median(b1s), median(b2s)
	m["mcb.ns_per_cycle"] = median(nspc)

	handler := map[int64]Span{} // by parent (client span) ID
	for _, s := range o.spans {
		if s.Name == "http.handler" {
			handler[s.Parent] = s
		}
	}
	var acc accounting
	var handlerMs, codecMs, clientMs, elapsedMs, waitMs, cycles, msgs, plainLat, tracedLat []float64
	n := 0
	for _, c := range chunks {
		for i, l := range latencies(c.ph.samples) {
			if i%2 == 0 {
				tracedLat = append(tracedLat, l)
			} else {
				plainLat = append(plainLat, l)
			}
		}
		for _, rec := range c.ph.recs {
			h, ok := handler[rec.span]
			if !ok {
				continue
			}
			n++
			rt, hd, el := ms(rec.rt), ms(h.Dur()), rec.resp.ElapsedMS
			run := c.b1
			if rec.resp.BatchSize > 1 {
				run = c.b2
			}
			mcbMs := float64(rec.resp.Cycles) * c.engNs / 1e6
			handlerMs = append(handlerMs, hd)
			codecMs = append(codecMs, hd-el)
			clientMs = append(clientMs, rt-hd)
			elapsedMs = append(elapsedMs, el)
			waitMs = append(waitMs, el-run)
			cycles = append(cycles, float64(rec.resp.Cycles))
			msgs = append(msgs, float64(rec.resp.Messages))
			acc.add(rt, map[string]float64{
				"client":  rt - hd,
				"http":    hd - el,
				"service": el - run,
				"core":    run - mcbMs,
				"mcb":     mcbMs,
			})
		}
	}
	if n == 0 {
		return o, nil
	}
	m["http.handler_ms_p50"] = median(handlerMs)
	m["http.codec_ms_p50"] = median(codecMs)
	m["http.client_ms_p50"] = median(clientMs)
	m["service.elapsed_ms_p50"] = median(elapsedMs)
	m["service.window_wait_ms_p50"] = median(waitMs)
	runs := float64(st1.Runs - st0.Runs)
	done := float64(st1.Completed - st0.Completed)
	m["service.jobs_per_run"] = ratio(done, runs)
	m["service.coalesced_share"] = ratio(float64(st1.CoalescedJobs-st0.CoalescedJobs), done)
	m["service.rejected"] = float64(st1.Rejected - st0.Rejected)
	m["service.queue_depth_max"] = float64(maxDepth)
	m["mcb.utilization"] = ratio(mean(msgs), mean(cycles)*float64(cfg.K))
	acc.report(n, m)
	m["core.self_ms"] = m["layer_ms.core"]
	m["mcb.engine_share"] = acc.parts["mcb"] / acc.total
	m["bench.trace_overhead_ratio"] = median(tracedLat)/median(plainLat) - 1
	return o, nil
}

// sampleQueueDepth polls the pool's queue depth every millisecond until the
// returned stop is called; stop returns the deepest queue seen.
func sampleQueueDepth(rig *serviceRig) (stop func() int) {
	quit := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		deepest := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				result <- deepest
				return
			case <-t.C:
				deepest = max(deepest, rig.srv.Pool().Stats().QueueDepth)
			}
		}
	}()
	return func() int { close(quit); return <-result }
}
