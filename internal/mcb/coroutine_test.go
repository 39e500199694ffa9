package mcb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Failure paths of the sharded engine's coroutine stepping, at the p >= 1024
// scale the engine is the default for. Every case ends in the leak check: no
// processor coroutine and no worker may outlive Run.

const coroP, coroK = 1024, 16

// sparseProgram is the §8 filter shape: in cycle c processor c%p writes
// channel 0 while every other processor idles, coalescing its idle stretches
// into IdleN batches, so most of the network sleeps. Processor who runs fn
// at the start of cycle at (fn nil: nobody).
func sparseProgram(cycles, who, at int, fn func(Node)) func(Node) {
	return func(pr Node) {
		q := IdleCoalescer{Node: pr}
		for c := 0; c < cycles; c++ {
			if fn != nil && c == at && pr.ID() == who {
				q.Flush()
				fn(pr)
			}
			if c%pr.P() == pr.ID() {
				q.Write(0, MsgX(1, int64(c)))
			} else {
				q.Idle()
			}
		}
		q.Flush()
	}
}

func TestCoroutinePanicIsSoftError(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := RunUniform(shardedCfg(coroP, coroK), sparseProgram(40, 600, 7, func(Node) { panic("boom") }))
	if err == nil || !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "processor 600 panicked: boom") {
		t.Fatalf("got %v, want the soft error of processor 600 wrapping ErrAborted", err)
	}
	// A soft error lets the survivors finish: the run is complete.
	if res == nil || res.Stats.Cycles != 40 {
		t.Fatalf("result %+v, want all 40 cycles run by the survivors", res)
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestCoroutineAbortWithUnsteppedShardMates aborts from the first processor
// of shard 0, so every other processor of the shard is still unstepped in
// that round — including round 0, where they never started at all.
func TestCoroutineAbortWithUnsteppedShardMates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := runtime.NumGoroutine()
	for _, gmp := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(gmp)
		for _, at := range []int{0, 5} {
			started := make([]bool, coroP)
			_, err := RunUniform(shardedCfg(coroP, coroK), func(pr Node) {
				started[pr.ID()] = true
				sparseProgram(20, 0, at, func(pr Node) { pr.Abortf("abort at %d", at) })(pr)
			})
			var ae *AbortError
			if !errors.As(err, &ae) || ae.Proc != 0 {
				t.Fatalf("GOMAXPROCS=%d at=%d: got %v, want AbortError from processor 0", gmp, at, err)
			}
			if at == 0 && started[1] {
				t.Fatalf("GOMAXPROCS=%d: processor 1 ran although processor 0 aborted round 0 before it was stepped", gmp)
			}
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestCoroutineCrashInsideIdleBatch crash-stops a processor in the middle of
// an idle stretch while the rest of its shard sleeps in IdleN batches, and
// holds the Report to the goroutine engine's byte for byte.
func TestCoroutineCrashInsideIdleBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	c := cfg(coroP, coroK)
	c.Faults = &FaultPlan{Seed: 5, Crashes: []Crash{{Proc: 900, Cycle: 30}}}
	shardedVsGoroutineReport(t, "crash mid-batch", c, sparseProgram(64, 0, 0, nil))
	waitGoroutines(t, base, 5*time.Second)
}

func TestCoroutineContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progs := make([]func(Node), coroP)
	for i := range progs {
		progs[i] = func(pr Node) {
			for c := 0; ; c++ {
				if c == 50 && pr.ID() == 0 {
					cancel()
				}
				pr.IdleN(16)
			}
		}
	}
	_, err := RunContext(ctx, shardedCfg(coroP, coroK), progs)
	var ae *AbortError
	if !errors.As(err, &ae) || !strings.Contains(ae.Msg, "context canceled") {
		t.Fatalf("got %v, want an AbortError carrying the context error", err)
	}
	waitGoroutines(t, base, 5*time.Second)
}

// TestCoroutineWedgedProgram: a program that blocks outside the engine wedges
// its whole shard; the watchdog reports it, Run gives up after AbortGrace,
// and once the program returns everything unwinds.
func TestCoroutineWedgedProgram(t *testing.T) {
	base := runtime.NumGoroutine()
	c := shardedCfg(coroP, coroK)
	c.StallTimeout = 50 * time.Millisecond
	c.AbortGrace = 50 * time.Millisecond
	release := make(chan struct{})
	res, err := RunUniform(c, sparseProgram(40, 333, 10, func(Node) { <-release }))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want StallError", err)
	}
	if se.Cycle != 10 || len(se.Stalled) != 1 || se.Stalled[0].Proc != 333 {
		t.Fatalf("StallError %+v, want processor 333 stalled after 10 cycles", se)
	}
	if res != nil {
		t.Fatal("the wedged worker had not unwound within AbortGrace: Result must be nil")
	}
	close(release)
	waitGoroutines(t, base, 5*time.Second)
}

// TestCoroutineGoexit: a program calling runtime.Goexit unwinds its worker
// along with it; the run fails with a typed error on either engine instead of
// hanging a worker.
func TestCoroutineGoexit(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, mode := range []EngineMode{EngineSharded, EngineGoroutine} {
		c := cfg(coroP, coroK)
		c.Engine = mode
		c.StallTimeout = 5 * time.Second
		_, err := RunUniform(c, sparseProgram(40, 700, 12, func(Node) { runtime.Goexit() }))
		var ae *AbortError
		if !errors.As(err, &ae) || ae.Proc != 700 || !strings.Contains(ae.Msg, "Goexit") {
			t.Fatalf("engine=%s: got %v, want AbortError from processor 700 naming Goexit", mode, err)
		}
	}
	waitGoroutines(t, base, 5*time.Second)
}

func ExampleIdleCoalescer() {
	res, err := RunUniform(Config{P: 4, K: 1, Engine: EngineSharded}, func(pr Node) {
		q := IdleCoalescer{Node: pr}
		for c := 0; c < 8; c++ {
			if c%4 == pr.ID() {
				q.Write(0, MsgX(1, int64(c))) // flushes the idle run first
			} else {
				q.Idle() // deferred: one IdleN per run
			}
		}
		q.Flush()
	})
	fmt.Println(res.Stats.Cycles, res.Stats.Messages, err)
	// Output: 8 8 <nil>
}
