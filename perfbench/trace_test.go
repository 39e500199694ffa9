package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Req: 7, Name: "core.op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Req: 7, Name: "checkpoint.save", Start: ms(10), End: ms(20)},
		{ID: 3, Parent: 1, Req: 7, Name: "checkpoint.latest", Start: ms(15), End: ms(30)}, // overlaps 2
		{ID: 4, Parent: 1, Req: 7, Name: "checkpoint.save", Start: ms(95), End: ms(110)},  // runs past 1
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: ms(100 - 20 - 5), 2: ms(10), 3: ms(15), 4: ms(15)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestAccountingCloses(t *testing.T) {
	var a accounting
	a.add(10, map[string]float64{"mcb": 6, "core": 4})
	// One op's estimate exceeding its time leaves a negative remainder,
	// which other ops' remainders absorb.
	a.add(10, map[string]float64{"mcb": 11, "core": -1})
	if g := a.gap(); g != 0 {
		t.Errorf("gap of parts that fit over the run = %v, want 0", g)
	}
	// An estimate that exceeds the time overall leaves a negative layer
	// total; clamped to 0, it shows as over-coverage.
	a.add(10, map[string]float64{"mcb": 14, "core": -4})
	if g := a.gap(); math.Abs(g-1.0/30) > 1e-12 {
		t.Errorf("gap = %v, want %v", g, 1.0/30)
	}
	m := map[string]float64{}
	a.report(3, m)
	if m["layer_ms.total"] != 10 || m["layer_ms.core"] != 0 || m["layer_ms.mcb"] != 31.0/3 {
		t.Errorf("report = %v", m)
	}
}

func TestTimedSubset(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0.01, 0.5, 0}, []int{0, 1, 3}},          // the undisturbed ones
		{[]float64{0.3, 0.2, 0.5, 0.4, 0.25}, []int{1, 4, 0}}, // the least-stolen half, rounded up
		{[]float64{0.9, 0.05, 0.8, 0.7}, []int{1, 3}},         // at least half
	} {
		got := timedSubset(tc.steal)
		slices.Sort(tc.want)
		if !slices.Equal(got, tc.want) {
			t.Errorf("timedSubset(%v) = %v, want %v", tc.steal, got, tc.want)
		}
	}
}

func TestUnstolen(t *testing.T) {
	timed := []ticks{{steal: 10, total: 100}, {steal: 30, total: 100}}
	if got := unstolen(timed); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("unstolen = %v, want 0.8", got)
	}
	if got := unstolen(nil); got != 1 {
		t.Errorf("unstolen of nothing = %v, want 1", got)
	}
}
