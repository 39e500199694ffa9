// Command perfbench is mcbnet's layered benchmark. It runs one workload for
// a fixed time, checks every answer against an oracle, and prints its
// metrics: the end-to-end metrics with tracing off, or with --trace 1 the
// per-layer metrics of a traced run. The last line of standard output is
// one JSON object; a human-readable table goes to standard error, and the
// run's provenance, extra figures and spans go under --out.
//
//	perfbench --workload sort-p64 --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many fresh processes measure setup_s; the median is
// reported.
const setupRuns = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir   = flag.String("out", ".bench_build/results", "directory for the run's artifact and spans")
		setupOne = flag.Bool("setup-child", false, "measure one cold setup and print its seconds (internal)")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	if *setupOne {
		d, err := setupOnce(w, *seed)
		if err != nil {
			return err
		}
		fmt.Println(d.Seconds())
		return nil
	}

	prov := newProvenance(w.name, *seed, *seconds, *trace == 1)
	ticks0 := readTicks()
	d := time.Duration(*seconds) * time.Second
	var (
		o     *outcome
		err   error
		specs = endToEnd
	)
	if *trace == 1 {
		specs = perLayer
		if w.lib != nil {
			o, err = runLibLayers(w.lib, *seed, d)
		} else {
			o, err = runServiceLayers(w, *seed, d)
		}
	} else {
		var setup float64
		if setup, err = setupMedian(w, *seed); err != nil {
			return err
		}
		if w.lib != nil {
			o, err = runLibE2E(w.lib, *seed, d)
		} else {
			o, err = runServiceE2E(w, *seed, d)
		}
		if err == nil {
			o.metrics["setup_s"] = setup
			o.metrics["max_rss_mb"] = maxRSSMB()
		}
	}
	if err != nil {
		return err
	}
	o.metrics["bench.steal_share"] = readTicks().minus(ticks0).share()
	o.info["bench.steal_share"] = o.metrics["bench.steal_share"]
	prov.Engine, prov.Algorithm = o.engine, o.algo
	if *trace == 1 && w.closes && o.metrics["trace.closure_gap"] > closureTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: per-layer accounting does not close: gap %.3f > %.2f\n",
			o.metrics["trace.closure_gap"], closureTolerance)
	}

	metrics := map[string]any{}
	for _, s := range specs {
		v := o.metrics[s.name] // a layer this workload does not exercise reads 0
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = 0 // only when every op failed; the run then exits non-zero
		}
		metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	printTable(os.Stderr, prov, specs, o)
	if err := writeArtifact(*outDir, prov, metrics, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: artifact:", err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.wrong == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		return fmt.Errorf("%d of %d operations failed; first: %v", o.failed, o.attempted, o.firstErr)
	}
	return nil
}

// setupOnce measures, in this fresh process, the time from the workload's
// start to its first verified answer: generating and making the first
// library call (cold schedule cache included), or server start plus the
// first request.
func setupOnce(w *workload, seed uint64) (time.Duration, error) {
	t := time.Now()
	if w.lib != nil {
		op := w.lib.runOne(seed, 0, nil)
		return time.Since(t), op.err
	}
	rig, err := startService(false)
	if err != nil {
		return 0, err
	}
	values := topkValues(seed, 0)
	rec, err := rig.post(topkBody(values), 0, false)
	if err == nil {
		err = checkTopK(values, rec.resp.Values)
	}
	d := time.Since(t)
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	return d, err
}

// setupMedian runs fresh copies of this program, one after the other,
// until setupRuns of them were not disturbed (see stealLimit) or twice that
// many ran, and returns the median setup time in seconds of those
// timedSubset picks, each scaled by the CPU share it kept.
func setupMedian(w *workload, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times, steal []float64
	for i := 0; len(times)-disturbed(steal) < setupRuns && i < 2*setupRuns; i++ {
		k := readTicks()
		cmd := exec.Command(self, "--setup-child", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("setup run %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("setup run %d: %w", i, err)
		}
		t := readTicks().minus(k)
		times = append(times, v*(1-t.share()))
		steal = append(steal, t.share())
	}
	var timed []float64
	for _, i := range timedSubset(steal) {
		timed = append(timed, times[i])
	}
	return median(timed), nil
}

func printTable(f *os.File, prov provenance, specs []metricSpec, o *outcome) {
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v engine=%s algorithm=%s go=%s gomaxprocs=%d nproc=%d commit=%.12s dirty=%v\n",
		prov.Workload, prov.Seed, prov.Trace, prov.Engine, prov.Algorithm, prov.Go, prov.GOMAXPROCS, prov.Nproc, prov.Commit, prov.Dirty)
	for _, s := range specs {
		fmt.Fprintf(f, "  %-40s %14.6g %s\n", s.name, o.metrics[s.name], s.unit)
	}
	for k, v := range o.info {
		fmt.Fprintf(f, "  %-40s %14v\n", "("+k+")", v)
	}
	fmt.Fprintf(f, "  attempted=%d failed=%d wrong=%d\n", o.attempted, o.failed, o.wrong)
}

// writeArtifact saves the run's provenance, metrics and extra figures as
// JSON, and the traced run's spans as JSONL, under dir.
func writeArtifact(dir string, prov provenance, metrics map[string]any, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if prov.Trace {
		kind = "trace"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", prov.Workload, prov.Seed, kind))
	b, err := json.MarshalIndent(map[string]any{
		"provenance": prov,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"metrics":    metrics,
		"info":       o.info,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if len(o.spans) == 0 {
		return nil
	}
	return writeJSONL(base+".spans.jsonl", o.spans)
}
