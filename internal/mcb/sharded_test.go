package mcb

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests of the sharded execution engine's own machinery: mode selection,
// failure-path unwinding (no goroutine leaks, no wedged barriers), the IdleN
// batch replay, large-p operation and the zero-alloc steady state. The
// cross-engine Report equivalence lives in determinism_test.go.

func shardedCfg(p, k int) Config {
	c := cfg(p, k)
	c.Engine = EngineSharded
	return c
}

func TestEngineModeResolution(t *testing.T) {
	cases := []struct {
		cfg  Config
		want EngineMode
	}{
		{Config{P: 4, K: 1}, EngineGoroutine},
		{Config{P: autoShardP, K: 1}, EngineSharded},
		{Config{P: 4, K: 1, Engine: EngineSharded}, EngineSharded},
		{Config{P: autoShardP, K: 1, Engine: EngineGoroutine}, EngineGoroutine},
	}
	for _, c := range cases {
		if got := c.cfg.engineMode(); got != c.want {
			t.Errorf("engineMode(P=%d, Engine=%q) = %q, want %q", c.cfg.P, c.cfg.Engine, got, c.want)
		}
	}
	bad := Config{P: 2, K: 1, Engine: EngineMode("threads")}
	if err := bad.validate(); err == nil {
		t.Error("validate accepted an unknown engine mode")
	}
}

// TestShardedRelayTraffic runs real collision-free traffic (every processor
// writes in turn, everyone reads) through the sharded engine and checks the
// model accounting, at worker counts both below and above the processor count.
func TestShardedRelayTraffic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		const p, k, cycles = 6, 2, 30
		res, err := Run(shardedCfg(p, k), relayPrograms(p, k, cycles, nil))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		if res.Stats.Cycles != cycles {
			t.Fatalf("GOMAXPROCS=%d: Cycles = %d, want %d", gmp, res.Stats.Cycles, cycles)
		}
		if res.Stats.Messages != cycles {
			t.Fatalf("GOMAXPROCS=%d: Messages = %d, want %d (one writer per cycle)", gmp, res.Stats.Messages, cycles)
		}
	}
}

// TestShardedIdleNBatch pins the IdleN batch replay to the per-cycle
// semantics: ragged idle stretches across processors must produce exactly the
// same cycle count as the goroutine engine, and a mid-stretch crash-stop must
// still fire on its exact cycle.
func TestShardedIdleNBatch(t *testing.T) {
	prog := func(pr Node) {
		id := pr.ID()
		pr.IdleN(5 + id*3) // ragged: batches of different lengths interleave
		if id == 0 {
			pr.Write(0, MsgX(1, 42))
		} else {
			pr.Read(0)
		}
		pr.IdleN(4)
	}
	g, err := RunUniform(cfg(4, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunUniform(shardedCfg(4, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.Cycles != s.Stats.Cycles || g.Stats.Messages != s.Stats.Messages {
		t.Fatalf("sharded (cycles=%d msgs=%d) != goroutine (cycles=%d msgs=%d)",
			s.Stats.Cycles, s.Stats.Messages, g.Stats.Cycles, g.Stats.Messages)
	}

	// Crash inside the idle stretch: IdleN must fall back to per-cycle issue
	// so the processor completes exactly 7 operations.
	c := shardedCfg(3, 1)
	c.Faults = &FaultPlan{Seed: 9, Crashes: []Crash{{Proc: 1, Cycle: 7}}}
	res, err := RunUniform(c, func(pr Node) { pr.IdleN(20) })
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want CrashError", err)
	}
	if len(res.Stats.Faults.Crashes) != 1 || res.Stats.Faults.Crashes[0].Cycle != 7 {
		t.Fatalf("crash events = %+v, want one crash after cycle 7", res.Stats.Faults.Crashes)
	}
}

// TestShardedLargeP exercises the p >> GOMAXPROCS regime the engine exists
// for: 4096 processors, real traffic, a ragged IdleN tail.
func TestShardedLargeP(t *testing.T) {
	const p, k, cycles = 4096, 8, 4
	res, err := RunUniform(shardedCfg(p, k), func(pr Node) {
		id := pr.ID()
		for c := 0; c < cycles; c++ {
			if id == c*k/cycles { // unique writer per (cycle, channel 0)
				pr.Write(0, MsgX(1, int64(id)))
			} else {
				pr.Read(0)
			}
		}
		pr.IdleN(id % 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != cycles+2 || res.Stats.Messages != cycles {
		t.Fatalf("Cycles=%d Messages=%d, want %d and %d", res.Stats.Cycles, res.Stats.Messages, cycles+2, cycles)
	}
}

// TestShardedNoLeakAfterAborts drives every abort flavour through the sharded
// engine and checks that workers, processors and the run itself all drain:
// a failure while processors sit suspended mid-submission or mid-IdleN-batch
// must unwind every coroutine.
func TestShardedNoLeakAfterAborts(t *testing.T) {
	base := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		// Collision.
		_, err := RunUniform(shardedCfg(4, 2), func(pr Node) {
			pr.Write(0, MsgX(1, int64(pr.ID())))
			pr.IdleN(3)
		})
		var colErr *CollisionError
		if !errors.As(err, &colErr) {
			t.Fatalf("iteration %d: got %v, want CollisionError", i, err)
		}

		// Abortf, with the other processors parked mid-IdleN-batch.
		_, err = RunUniform(shardedCfg(4, 2), func(pr Node) {
			pr.Idle()
			if pr.ID() == 1 {
				pr.Idle()
				pr.Abortf("deliberate")
			}
			pr.IdleN(40)
		})
		var ae *AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("iteration %d: got %v, want AbortError", i, err)
		}
		if ae.Proc != 1 {
			t.Fatalf("iteration %d: AbortError.Proc = %d, want 1", i, ae.Proc)
		}

		// Crash-stop of a whole shard: every processor a worker owns exits.
		c := shardedCfg(4, 2)
		c.Faults = &FaultPlan{Seed: uint64(i + 1), Crashes: []Crash{{Proc: 2, Cycle: 3}}}
		_, err = Run(c, relayPrograms(4, 2, 10, nil))
		var ce *CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("iteration %d: got %v, want CrashError", i, err)
		}

		// MaxCycles budget, firing while every processor sits in one big
		// batch (the resolver aborts from inside a worker).
		c = shardedCfg(4, 2)
		c.MaxCycles = 16
		_, err = RunUniform(c, func(pr Node) { pr.IdleN(1000) })
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("iteration %d: got %v, want BudgetError", i, err)
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestShardedStallWatchdog: a processor that stops issuing ops blocks its
// worker mid-resume; the stall watchdog must still fire and the run must
// drain.
func TestShardedStallWatchdog(t *testing.T) {
	base := runtime.NumGoroutine()
	c := shardedCfg(3, 1)
	c.StallTimeout = 50 * time.Millisecond
	progs := []func(Node){
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) { pr.IdleN(8) },
		func(pr Node) {
			pr.Idle()
			time.Sleep(300 * time.Millisecond)
			pr.IdleN(7)
		},
	}
	_, err := Run(c, progs)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	waitGoroutines(t, base, 3*time.Second)
}

// TestShardedSteadyStateZeroAllocs is the sharded-engine variant of
// TestSteadyStateCycleZeroAllocs: worker rounds, coroutine switches and the batched
// resolver must all be allocation-free in the steady state.
func TestShardedSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const p, k = 8, 2
	run := func(cycles int, idleOnly bool) float64 {
		c := Config{P: p, K: k, StallTimeout: time.Minute, Engine: EngineSharded}
		return testingAllocsPerRun(t, c, cycles, idleOnly)
	}
	short := run(100, false)
	long := run(2100, false)
	if perCycle := (long - short) / 2000; perCycle > 0.01 {
		t.Fatalf("sharded steady-state cycle allocates: %.4f allocs/cycle (short %.1f, long %.1f)",
			perCycle, short, long)
	}
	shortIdle := run(100, true)
	longIdle := run(2100, true)
	if perCycle := (longIdle - shortIdle) / 2000; perCycle > 0.01 {
		t.Fatalf("sharded idle cycle allocates: %.4f allocs/cycle (short %.1f, long %.1f)",
			perCycle, shortIdle, longIdle)
	}
}

// testingAllocsPerRun measures the average allocations of one run of the
// write/read (or idle-only) steady-state workload under the given config.
func testingAllocsPerRun(t *testing.T, c Config, cycles int, idleOnly bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(4, func() {
		var res *Result
		var err error
		if idleOnly {
			res, err = RunUniform(c, func(pr Node) { pr.IdleN(cycles) })
		} else {
			res, err = RunUniform(c, func(pr Node) {
				id := pr.ID()
				if id < c.K {
					m := MsgX(1, int64(id))
					for i := 0; i < cycles; i++ {
						pr.WriteRead(id, m, id)
					}
					return
				}
				ch := id % c.K
				for i := 0; i < cycles; i++ {
					pr.Read(ch)
				}
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !idleOnly && res.Stats.Cycles != int64(cycles) {
			t.Fatalf("ran %d cycles, want %d", res.Stats.Cycles, cycles)
		}
	})
}

// shardedVsGoroutineReport runs prog under c on both engines and fails unless
// the two canonical Reports (with any run error folded into Extra) are
// byte-identical.
func shardedVsGoroutineReport(t *testing.T, tag string, c Config, prog func(Node)) {
	t.Helper()
	var ref []byte
	for _, mode := range []EngineMode{EngineGoroutine, EngineSharded} {
		rc := c
		rc.Engine = mode
		if rc.Faults != nil {
			rc.Faults = rc.Faults.Clone()
		}
		res, err := RunUniform(rc, prog)
		if res == nil {
			t.Fatalf("%s engine=%s: nil result (err=%v)", tag, mode, err)
		}
		rep := NewReport(rc, &res.Stats)
		if err != nil {
			rep.Extra = map[string]any{"error": err.Error()}
		}
		b, jerr := rep.JSON()
		if jerr != nil {
			t.Fatal(jerr)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Fatalf("%s: engine reports diverge:\n%s\n--- want ---\n%s", tag, b, ref)
		}
	}
}

// TestShardedCrashStopMidCycle crash-stops processors in the middle of a
// sparse segment — once while the victim is the sole active writer, once
// while it sleeps inside an IdleN batch — across worker counts, and holds
// the sharded engine's Report to the goroutine engine's byte for byte.
func TestShardedCrashStopMidCycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const p, k, segLen = 8, 2, 8
	prog := func(pr Node) {
		id := pr.ID()
		for seg := 0; seg < 6; seg++ {
			if seg%p == id {
				for i := 0; i < segLen; i++ {
					pr.WriteRead(0, MsgX(1, int64(seg*segLen+i)), 0)
				}
			} else {
				pr.IdleN(segLen)
			}
		}
	}
	crashes := []Crash{
		{Proc: 2, Cycle: 20}, // mid-segment 2: proc 2 is the active writer
		{Proc: 6, Cycle: 35}, // mid-segment 4: proc 6 is a mid-batch sleeper
	}
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for _, cr := range crashes {
			c := cfg(p, k)
			c.Faults = &FaultPlan{Seed: 3, Crashes: []Crash{cr}}
			shardedVsGoroutineReport(t, fmt.Sprintf("GOMAXPROCS=%d crash=%+v", gmp, cr), c, prog)
		}
	}
}

// TestShardedAbortDuringScatter aborts the run on a cycle where every other
// processor has a read result in flight: the failure races the workers'
// post-release scatter stage, which must neither wedge the barrier nor leak.
// The aborting processor's attribution must survive the race.
func TestShardedAbortDuringScatter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	const p, k = 32, 2
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		for abortCycle := 1; abortCycle <= 5; abortCycle++ {
			_, err := RunUniform(shardedCfg(p, k), func(pr Node) {
				id := pr.ID()
				for c := 0; c < 40; c++ {
					switch {
					case id == 0:
						pr.WriteRead(0, MsgX(1, int64(c)), 0)
					case id == 9 && c == abortCycle:
						pr.Abortf("scatter abort at cycle %d", c)
					default:
						pr.Read(0)
					}
				}
			})
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("GOMAXPROCS=%d abortCycle=%d: got %v, want AbortError", gmp, abortCycle, err)
			}
			if ae.Proc != 9 {
				t.Fatalf("GOMAXPROCS=%d abortCycle=%d: AbortError.Proc = %d, want 9", gmp, abortCycle, ae.Proc)
			}
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestShardedIdleNBoundaries pins the sleeper wake arithmetic at its edges:
// length-1 batches (the announcement round is the whole batch), back-to-back
// batches, a batch whose wake cycle is the processor's last (straight into
// exit), and phase markers attached to batch announcements. Both engines
// must produce byte-identical Reports at every worker count.
func TestShardedIdleNBoundaries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	prog := func(pr Node) {
		id := pr.ID()
		pr.Phase("warm")
		pr.IdleN(1) // announcement round is the whole batch
		pr.IdleN(1) // back-to-back batches
		pr.IdleN(3)
		if id == 0 {
			pr.Write(0, MsgX(1, 7))
		} else {
			pr.Read(0)
		}
		pr.Phase("tail") // attached to the next batch's announcement
		pr.IdleN(id + 1) // ragged: each processor wakes straight into exit
	}
	for _, gmp := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(gmp)
		shardedVsGoroutineReport(t, fmt.Sprintf("GOMAXPROCS=%d", gmp), cfg(5, 1), prog)
	}
}

// TestShardedPanicUnwinds: a plain panic in a program under the sharded
// engine surfaces as an engine error and the run drains (the panicking
// processor exits the protocol; the survivors finish).
func TestShardedPanicUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := RunUniform(shardedCfg(4, 2), func(pr Node) {
		pr.Idle()
		if pr.ID() == 2 {
			panic(fmt.Sprintf("boom from %d", pr.ID()))
		}
		pr.IdleN(3)
	})
	if err == nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want an abort wrapping ErrAborted", err)
	}
	waitGoroutines(t, base, 3*time.Second)
}
