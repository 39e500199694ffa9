package main

// workload is one entry of the benchmark: a library closed loop (lib set)
// or a load phase against the in-process service.
type workload struct {
	name string
	// why mirrors the workload's line in BENCHMARK.json.
	why string
	lib *libWorkload
	// rate is a service workload's open-loop request rate; 0 means a closed
	// loop over nproc connections.
	rate float64
	// closes marks the workloads whose traced per-layer times must add up
	// to the op or request time within closureTolerance.
	closes bool
}

// closureTolerance is the largest trace.closure_gap the accounting may show
// on a workload marked closes: the share of the measured time by which the
// per-layer parts may over-cover it.
const closureTolerance = 0.10

var workloads = []*workload{
	{
		name:   "sort-p64",
		why:    "Dense: mcbnet.Sort n=4096 p=64 k=8, every processor steps every cycle, so mcb dominates; per-layer times sum to the op within 10%",
		lib:    sortP64,
		closes: true,
	},
	{
		name: "select-p1024",
		why:  "Sparse: mcbnet.Median n=1024 p=1024 k=16 on the sharded engine, few writers per cycle; bypasses the goroutine engine",
		lib:  selectP1024,
	},
	{
		name: "sort-recover",
		why:  "sort-p64 inputs via SortWithRetry with checkpoints and seeded 1e-4 drops: segmented sort path, snapshot codec, replays",
		lib:  sortRecover,
	},
	{
		name:   "service-r100",
		why:    "mcbd top-k, open loop at 100 rps: http and the batch window dominate, coalescing rare; per-layer times sum to the request within 10%",
		rate:   100,
		closes: true,
	},
	{
		name:   "service-closed",
		why:    "mcbd top-k, closed loop over nproc connections: capacity, where coalescing fires; per-layer times sum to the request within 10%",
		closes: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd metrics are measured with tracing off and reported by every
// workload. The time bounds are wide because a 2-vCPU VM's speed drifts over
// minutes without steal showing: across ten 15 s runs, select-p1024's
// latency IQR/median reached 16 %. Cycle and message counts are exact on the
// library workloads but follow coalescing, and so timing, on the service.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower", 0.24},
	{"elems_per_s", "elem/s", "higher", 0.24},
	{"cycles_per_op", "count", "lower", 0.15},
	{"messages_per_op", "count", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.20},
}

// phaseLabels are the core phase names reported as core.phase_cycles.*:
// the gathered Columnsort phases of the sorts and the filtering-selection
// phases of select-p1024.
var phaseLabels = []string{
	"phase0a:formation", "phase0b:collection", "phase2:transpose", "phase4:un-diagonalize",
	"phase6:up-shift", "phase8:down-shift", "phase10:redistribution",
	"select:init:tree", "select:init:broadcast", "select:filter:00:m=1024", "select:found",
}

// perLayer metrics come from the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{name: "mcb.ns_per_cycle", unit: "ns", better: "lower"},
		{name: "mcb.engine_ns_per_cycle", unit: "ns", better: "lower"},
		{name: "mcb.engine_share", unit: "ratio", better: "lower"},
		{name: "mcb.utilization", unit: "ratio", better: "higher"},
		{name: "mcb.fault_drops_per_op", unit: "count", better: "lower"},
		{name: "core.self_ms", unit: "ms", better: "lower"},
		{name: "core.attempts_per_op", unit: "count", better: "lower"},
		{name: "core.resumes_per_op", unit: "count", better: "lower"},
		{name: "core.replayed_cycle_ratio", unit: "ratio", better: "lower"},
		{name: "core.runbatch_ms.b1", unit: "ms", better: "lower"},
		{name: "core.runbatch_ms.b2", unit: "ms", better: "lower"},
	}
	for _, l := range phaseLabels {
		specs = append(specs, metricSpec{name: "core.phase_cycles." + metricName(l), unit: "count", better: "lower"})
	}
	return append(specs, []metricSpec{
		{name: "seq.sort_ns_per_elem", unit: "ns", better: "lower"},
		{name: "seq.select_ns_per_elem", unit: "ns", better: "lower"},
		{name: "seq.est_share", unit: "ratio", better: "lower"},
		{name: "schedule.build_ms", unit: "ms", better: "lower"},
		{name: "checkpoint.saves_per_op", unit: "count", better: "lower"},
		{name: "checkpoint.save_us_p50", unit: "us", better: "lower"},
		{name: "checkpoint.latest_us_p50", unit: "us", better: "lower"},
		{name: "checkpoint.bytes_per_save", unit: "B", better: "lower"},
		{name: "service.elapsed_ms_p50", unit: "ms", better: "lower"},
		{name: "service.window_wait_ms_p50", unit: "ms", better: "lower"},
		{name: "service.jobs_per_run", unit: "count", better: "higher"},
		{name: "service.coalesced_share", unit: "ratio", better: "higher"},
		{name: "service.rejected", unit: "count", better: "lower"},
		{name: "service.queue_depth_max", unit: "count", better: "lower"},
		{name: "http.handler_ms_p50", unit: "ms", better: "lower"},
		{name: "http.codec_ms_p50", unit: "ms", better: "lower"},
		{name: "http.client_ms_p50", unit: "ms", better: "lower"},
		{name: "proc.cpu_s_per_op", unit: "s", better: "lower"},
		{name: "proc.cpu_util", unit: "ratio", better: "lower"},
		{name: "proc.allocs_per_op", unit: "count", better: "lower"},
		{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
		{name: "proc.gc_count_per_op", unit: "count", better: "lower"},
		{name: "bench.gen_late_p90_ms", unit: "ms", better: "lower"},
		{name: "bench.gen_late_max_ms", unit: "ms", better: "lower"},
		{name: "bench.steal_share", unit: "ratio", better: "lower"},
		{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
		{name: "layer_ms.client", unit: "ms", better: "lower"},
		{name: "layer_ms.http", unit: "ms", better: "lower"},
		{name: "layer_ms.service", unit: "ms", better: "lower"},
		{name: "layer_ms.checkpoint", unit: "ms", better: "lower"},
		{name: "layer_ms.core", unit: "ms", better: "lower"},
		{name: "layer_ms.seq", unit: "ms", better: "lower"},
		{name: "layer_ms.mcb", unit: "ms", better: "lower"},
		{name: "layer_ms.total", unit: "ms", better: "lower"},
		{name: "trace.closure_gap", unit: "ratio", better: "lower"},
	}...)
}()

// metricName maps a phase label to the metric-name alphabet: letters,
// digits, '_', '.' and '-'; anything else becomes '_'.
func metricName(label string) string {
	b := []byte(label)
	for i, c := range b {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-'
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}
