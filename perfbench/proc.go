package main

import (
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's resource use.
type procSnap struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcs     uint32
	wall    time.Time
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcs:     m.NumGC,
		wall:    time.Now(),
	}
}

// procDelta sums the resource use of the measured stretches of a run.
type procDelta struct {
	cpu, wall          time.Duration
	mallocs, bytes, gc uint64
}

// add accumulates the stretch between readings a and b.
func (p *procDelta) add(a, b procSnap) {
	p.cpu += b.cpu - a.cpu
	p.wall += b.wall.Sub(a.wall)
	p.mallocs += b.mallocs - a.mallocs
	p.bytes += b.bytes - a.bytes
	p.gc += uint64(b.gcs - a.gcs)
}

// report writes the proc.* per-layer metrics for ops operations.
func (p *procDelta) report(ops int, out map[string]float64) {
	n := float64(ops)
	out["proc.cpu_s_per_op"] = ratio(p.cpu.Seconds(), n)
	out["proc.cpu_util"] = ratio(p.cpu.Seconds(), p.wall.Seconds()*float64(runtime.NumCPU()))
	out["proc.allocs_per_op"] = ratio(float64(p.mallocs), n)
	out["proc.alloc_bytes_per_op"] = ratio(float64(p.bytes), n)
	out["proc.gc_count_per_op"] = ratio(float64(p.gc), n)
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// ticks is a reading of the aggregate CPU line of /proc/stat.
type ticks struct{ steal, total uint64 }

// readTicks returns the steal ticks and all ticks so far (guest time is
// already inside user time, so it is left out); zero if /proc/stat cannot
// be read.
func readTicks() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}
	}
	var t ticks
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// minus returns the ticks that passed between u and t.
func (t ticks) minus(u ticks) ticks { return ticks{t.steal - u.steal, t.total - u.total} }

func (t ticks) plus(u ticks) ticks { return ticks{t.steal + u.steal, t.total + u.total} }

// share is the share of the ticks that the hypervisor gave to other
// machines.
func (t ticks) share() float64 { return ratio(float64(t.steal), float64(t.total)) }

// An op, load chunk or setup process during which more than stealLimit of
// the CPU was stolen is disturbed: a noisy neighbour, not the program, set
// its time. It is still verified and counted, but not timed, and the run is
// extended by its length, up to maxStretch times the requested duration in
// all. The times that are reported are scaled by the share of the CPU that
// was not stolen while they were measured (see unstolen).
const (
	stealLimit = 0.10
	maxStretch = 1.5
)

// unstolen is the share of the CPU this machine kept over the timed ops or
// chunks: times measured on them are scaled by it, and rates divided by it,
// so that sustained steal, which the hypervisor and not the program causes,
// does not read as a slower program. It is exact for work that keeps every
// CPU busy, and it under-corrects for work that leaves CPUs idle.
func unstolen(timed []ticks) float64 {
	var sum ticks
	for _, t := range timed {
		sum = sum.plus(t)
	}
	return 1 - sum.share()
}

// timedSubset picks, in order, the indices of the ops or chunks to time
// given the steal share each saw: the undisturbed ones or, when fewer than
// half are undisturbed, the half that saw the least steal.
func timedSubset(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= stealLimit {
		n++
	}
	keep := idx[:max(n, (len(idx)+1)/2)]
	sort.Ints(keep)
	return keep
}

// disturbed counts the steal shares above stealLimit.
func disturbed(steal []float64) int {
	n := 0
	for _, s := range steal {
		if s > stealLimit {
			n++
		}
	}
	return n
}

// provenance describes where and how a run was measured.
type provenance struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Nproc      int    `json:"nproc"`
	CPUMax     string `json:"cgroup_cpu_max,omitempty"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Engine     string `json:"engine"`
	Algorithm  string `json:"algorithm"`
}

func newProvenance(workload string, seed uint64, seconds int, trace bool) provenance {
	p := provenance{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Nproc:      nproc(),
		Commit:     "none",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		p.CPUMax = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return p
}

// nproc is the number of CPUs this process may run on (the `nproc` count).
func nproc() int { return runtime.NumCPU() }
