package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

func smallInstance(t *testing.T, seed int64, n int) *problem.Instance {
	t.Helper()
	in, err := uniform(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func greedy(t *testing.T, in *problem.Instance, opts ...oblivious.Option) *problem.Schedule {
	t.Helper()
	res, err := oblivious.Lookup("greedy").Solve(context.Background(), model, in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

// TestCheckerRejectsOneSlot: the checker accepts a solver's schedule and
// rejects the same requests forced into one slot, a wrong power, and a
// gap in the colors.
func TestCheckerRejectsOneSlot(t *testing.T) {
	in := smallInstance(t, 1, 200)
	c, err := newChecker(in, model)
	if err != nil {
		t.Fatal(err)
	}
	s := greedy(t, in)
	if s.NumColors() < 2 {
		t.Fatalf("want an instance that needs several slots, got %d", s.NumColors())
	}
	if err := c.schedule(s); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	corrupt := []struct {
		name string
		edit func(*problem.Schedule)
	}{
		{"one slot", func(s *problem.Schedule) { clear(s.Colors) }},
		{"linear power", func(s *problem.Schedule) { s.Powers[3] *= s.Powers[3] }},
		{"empty color", func(s *problem.Schedule) {
			for i := range s.Colors {
				s.Colors[i] *= 2
			}
		}},
	}
	for _, tc := range corrupt {
		bad := &problem.Schedule{Colors: slices.Clone(s.Colors), Powers: slices.Clone(s.Powers)}
		tc.edit(bad)
		if err := c.schedule(bad); err == nil {
			t.Errorf("%s: corrupted schedule accepted", tc.name)
		}
	}
}

// TestCorruptScheduleFailsRun: a batch run whose schedules are forced
// into one slot is reported incorrect, and an untouched one is correct.
func TestCorruptScheduleFailsRun(t *testing.T) {
	spec := batchSpec{
		solver: "greedy", count: 2,
		gen: func(rng *rand.Rand) (*problem.Instance, error) { return uniform(rng, 150) },
	}
	for _, traced := range []bool{false, true} {
		b, err := newBatch(1, traced, spec)
		if err != nil {
			t.Fatal(err)
		}
		if out := b.run(0); len(out.problems) != 0 || out.failed != 0 {
			t.Fatalf("traced=%v: clean run reported %v, %d failed", traced, out.problems, out.failed)
		}
		b.corrupt = func(s *problem.Schedule) { clear(s.Colors) }
		out := b.run(0)
		if !slices.ContainsFunc(out.problems, func(p string) bool { return strings.Contains(p, "violates its SINR constraint") }) {
			t.Errorf("traced=%v: every request in one slot gave problems %q", traced, out.problems)
		}
	}
}

// TestTracedPathsMatchSolve: the public Solve, the layer-by-layer run and
// the layer-by-layer run on the counting decorator give bitwise-identical
// schedules, on the sparse and on the dense engine.
func TestTracedPathsMatchSolve(t *testing.T) {
	in := smallInstance(t, 2, 400)
	v := sinr.Bidirectional
	for _, mode := range []oblivious.AffectanceMode{oblivious.AffectSparse, oblivious.AffectDense} {
		public := greedy(t, in, oblivious.WithAffectanceMode(mode), oblivious.WithValidation(true))

		powers := power.Powers(model, in, power.Sqrt())
		var cache sinr.Cache = affect.New(model, v, in, powers)
		if mode == oblivious.AffectSparse {
			e, err := sparse.New(model, v, in, powers, sparse.Options{Epsilon: oblivious.DefaultSparseEpsilon})
			if err != nil {
				t.Fatal(err)
			}
			cache = e
		}
		m := model.WithCache(cache)
		plain, err := coloring.GreedyFirstFit(m, in, v, powers, nil)
		if err != nil {
			t.Fatal(err)
		}

		tr := newBatchTrace()
		decorated, err := tr.layeredGreedy(in, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !identical(public, plain) || !identical(public, decorated) {
			t.Errorf("%v: public, layered and decorated schedules differ", mode)
		}
		if mode == oblivious.AffectSparse && tr.counts.canAdd == 0 {
			t.Errorf("sparse: the decorator saw no CanAdd call")
		}
	}
}

// TestCountingEngineKeepsOnlinePath: the online engine on the counting
// decorator makes the same placements as on the bare sparse engine.
func TestCountingEngineKeepsOnlinePath(t *testing.T) {
	bare, err := newChurnSized(3, false, 300, 400, 600)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := newChurnSized(3, true, 300, 400, 600)
	if err != nil {
		t.Fatal(err)
	}
	for bare.next < len(bare.trace) {
		if err := bare.step(); err != nil {
			t.Fatal(err)
		}
		if err := counted.step(); err != nil {
			t.Fatal(err)
		}
	}
	if !identical(bare.eng.Snapshot(), counted.eng.Snapshot()) {
		t.Error("online placements differ with the counting decorator")
	}
	if counted.counts.canAdd == 0 || counted.counts.removes == 0 {
		t.Errorf("decorator counted %+v", *counted.counts)
	}
}

// TestChurnVerifyCatchesMismatch: the online check passes on a replayed
// trace and fails when the engine and the bookkeeping disagree.
func TestChurnVerifyCatchesMismatch(t *testing.T) {
	c, err := newChurnSized(4, false, 300, 400, 2000)
	if err != nil {
		t.Fatal(err)
	}
	out := c.run(0)
	if len(out.problems) != 0 || out.failed != 0 || out.attempted != churnBlock {
		t.Fatalf("clean run: %d attempted, %d failed, problems %v", out.attempted, out.failed, out.problems)
	}
	for i, a := range c.active {
		if a {
			c.active[i] = false
			break
		}
	}
	out = newOutcome()
	c.verify(out)
	if len(out.problems) == 0 {
		t.Error("bookkeeping mismatch not reported")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps BENCHMARK.json and the program
// in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestBadFlagsPrintNoResult: a run that cannot start exits non-zero and
// prints nothing on standard output.
func TestBadFlagsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pipeline", "--trace", "2"},
		{"--workload", "pipeline", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q", strings.Join(args, " "), code, stdout.String())
		}
	}
}
