package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"testing"
)

// costs is the model-cost trace of a few ops of one library workload.
type costs struct {
	cycles, messages  []int64
	attempts, resumes []int
}

func runCosts(t *testing.T, w *libWorkload, seed uint64, ops int) costs {
	t.Helper()
	var c costs
	for i := 1; i <= ops; i++ {
		op := w.runOne(seed, i, nil)
		if op.err != nil {
			t.Fatalf("op %d: %v", i, op.err)
		}
		c.cycles = append(c.cycles, op.res.cycles)
		c.messages = append(c.messages, op.res.messages)
		c.attempts = append(c.attempts, op.res.attempts)
		c.resumes = append(c.resumes, op.res.resumes)
	}
	return c
}

// One seed gives the same model costs, run after run, including the retry
// layer's attempt and resume sequence under seeded faults.
func TestCostsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  int
	}{{"sort-p64", 2}, {"select-p1024", 1}, {"sort-recover", 4}} {
		w := findWorkload(tc.name).lib
		a, b := runCosts(t, w, 3, tc.ops), runCosts(t, w, 3, tc.ops)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs with seed 3 differ:\n%+v\n%+v", tc.name, a, b)
		}
		if tc.name == "sort-recover" && slices.Max(a.attempts) < 2 {
			t.Errorf("sort-recover: attempts %v, want at least one retry in %d ops", a.attempts, tc.ops)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		if w.lib != nil {
			if reflect.DeepEqual(w.lib.gen(1, 0), w.lib.gen(2, 0)) {
				t.Errorf("%s: seeds 1 and 2 give the same inputs", w.name)
			}
			if !reflect.DeepEqual(w.lib.gen(1, 0), w.lib.gen(1, 0)) {
				t.Errorf("%s: seed 1 gives different inputs on two calls", w.name)
			}
		}
	}
	if slices.Equal(topkValues(1, 0), topkValues(2, 0)) {
		t.Error("service: seeds 1 and 2 give the same request values")
	}
}

// The workloads exercise the engines they are meant to: the goroutine
// engine for the dense sort and the sharded engine for the large selection.
func TestResolvedEngines(t *testing.T) {
	for name, want := range map[string]string{"sort-p64": "goroutine", "select-p1024": "sharded"} {
		w := findWorkload(name).lib
		var op libOp
		got := detectEngine(func() { op = w.runOne(1, 0, nil) })
		if op.err != nil {
			t.Fatalf("%s: %v", name, op.err)
		}
		if got != want {
			t.Errorf("%s ran on engine %q, want %q", name, got, want)
		}
	}
}

// BENCHMARK.json at the repository root declares what this program runs and
// prints; the two must agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// A wrong answer fails the oracle and counts as wrong, not only as failed.
func TestOracleCountsWrongAnswers(t *testing.T) {
	values := topkValues(1, 0)
	want := slices.Clone(values)
	slices.Sort(want)
	slices.Reverse(want)
	if err := checkTopK(values, want[:topK]); err != nil {
		t.Fatalf("correct top-k rejected: %v", err)
	}
	o := newOutcome()
	o.fail(checkTopK(values, want[1:topK+1]))
	o.fail(errors.New("status 429"))
	if o.failed != 2 || o.wrong != 1 {
		t.Errorf("failed=%d wrong=%d, want 2 and 1", o.failed, o.wrong)
	}

	w := findWorkload("sort-p64").lib
	in := w.gen(1, 0)
	res, err := w.do(in, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.sorted[0][0], res.sorted[0][1] = res.sorted[0][1], res.sorted[0][0]
	if w.verify(in, res) == nil {
		t.Error("sort oracle accepted an unsorted answer")
	}
}
