package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"time"

	oblivious "repro"
	"repro/internal/instance"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// workload is one named set of inputs and the operations run on them.
type workload struct {
	name string
	// setup generates the inputs from the seed and does every piece of
	// work the measured operations reuse, ending with one untimed
	// warm-up operation. traced builds the state for the per-layer run.
	setup func(seed int64, traced bool) (runner, error)
}

// model is the physical model of every workload: α = 3, β = 1, ν = 0.
var model = sinr.Model{Alpha: 3, Beta: 1, Noise: 0}

// Workload sizes. greedy-sparse sits above sparse.AutoThreshold (4096) so
// the default auto mode picks the sparse engine; greedy-dense and
// pipeline sit below it and run dense. The uniform instances keep the
// density of scale_test.go's scaleInstance: side 300·√(n/2000).
//
// A round of a batch workload solves each instance of its set once, and a
// run measures whole rounds until its time is up. The set sizes make one
// round take about 20 s on a 2-CPU Xeon, longer than the 15 s run, so a
// run is one round and its mean averages over many instances.
const (
	sparseN      = 4500
	sparseCount  = 12
	denseN       = 2000
	denseCount   = 48
	pipelineN    = 800
	pipeCount    = 13
	churnN       = 4500
	churnFill    = 3 * churnN
	churnMaxEvts = 60 * churnBlocksPerSecond * churnBlock
)

var workloads = []workload{
	{name: "greedy-sparse", setup: func(seed int64, traced bool) (runner, error) {
		return newBatch(seed, traced, batchSpec{
			solver: "greedy", count: sparseCount,
			gen:  func(rng *rand.Rand) (*problem.Instance, error) { return uniform(rng, sparseN) },
			opts: []oblivious.Option{oblivious.WithValidation(true)},
		})
	}},
	{name: "greedy-dense", setup: func(seed int64, traced bool) (runner, error) {
		return newBatch(seed, traced, batchSpec{
			solver: "greedy", count: denseCount,
			// 16 clusters of radius 20 spread over a 3000-wide square:
			// heavy local contention, about 100 slots per instance.
			gen: func(rng *rand.Rand) (*problem.Instance, error) {
				return instance.Clustered(rng, denseN, 16, 20, 3000, 1)
			},
			opts: []oblivious.Option{oblivious.WithValidation(true)},
		})
	}},
	{name: "online-churn", setup: newChurn},
	{name: "pipeline", setup: func(seed int64, traced bool) (runner, error) {
		return newBatch(seed, traced, batchSpec{
			solver: "pipeline", count: pipeCount,
			gen: func(rng *rand.Rand) (*problem.Instance, error) { return uniform(rng, pipelineN) },
		})
	}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// uniform draws n requests of length 1 to 8 uniformly over a square of
// side 300·√(n/2000).
func uniform(rng *rand.Rand, n int) (*problem.Instance, error) {
	return instance.UniformRandom(rng, n, 300*math.Sqrt(float64(n)/2000), 1, 8)
}

// batchSpec describes a batch workload: a seeded set of instances, each
// solved in turn by one public solver.
type batchSpec struct {
	solver string
	count  int
	gen    func(rng *rand.Rand) (*problem.Instance, error)
	opts   []oblivious.Option
}

// batch is a set-up batch workload.
type batch struct {
	spec   batchSpec
	traced bool
	insts  []*problem.Instance
	checks []*checker
	genS   float64
	// corrupt, when set, alters every schedule before it is checked; the
	// tests use it to show that a wrong schedule fails the run.
	corrupt func(*problem.Schedule)
}

func newBatch(seed int64, traced bool, spec batchSpec) (*batch, error) {
	b := &batch{spec: spec, traced: traced}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < spec.count; k++ {
		in, err := spec.gen(rng)
		if err != nil {
			return nil, err
		}
		b.insts = append(b.insts, in)
	}
	b.genS = time.Since(start).Seconds()
	for _, in := range b.insts {
		c, err := newChecker(in, model)
		if err != nil {
			return nil, err
		}
		b.checks = append(b.checks, c)
	}
	// The warm-up operation.
	if _, err := b.solve(b.insts[0]); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *batch) genSeconds() float64 { return b.genS }

// solve runs the public solver on one instance.
func (b *batch) solve(in *problem.Instance, extra ...oblivious.Option) (*problem.Schedule, error) {
	opts := append(append([]oblivious.Option(nil), b.spec.opts...), extra...)
	res, err := oblivious.Lookup(b.spec.solver).Solve(context.Background(), model, in, opts...)
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func (b *batch) run(d time.Duration) *outcome {
	out := newOutcome()
	var tr *batchTrace
	if b.traced {
		tr = newBatchTrace()
	}
	var first *problem.Schedule
	forcedGC := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for k, in := range b.insts {
			// Each solve starts from a collected heap, so one solve's
			// garbage does not land on the next one's clock.
			runtime.GC()
			forcedGC++
			opStart := time.Now()
			var (
				s   *problem.Schedule
				err error
			)
			switch {
			case tr == nil:
				s, err = b.solve(in)
			case b.spec.solver == "greedy":
				// The greedy layers one by one: power.Powers, the
				// engine build, coloring.GreedyFirstFit, validation.
				s, err = tr.layeredGreedy(in, oblivious.AffectAuto)
			default:
				s, err = tr.observedSolve(b, in)
			}
			opNs := time.Since(opStart).Nanoseconds()
			out.attempted++
			if err != nil {
				out.fail("instance %d: %v", k, err)
				continue
			}
			out.opNs = append(out.opNs, opNs)
			if b.corrupt != nil {
				b.corrupt(s)
			}
			if err := b.checks[k].schedule(s); err != nil {
				out.problem("instance %d: %v", k, err)
			}
			out.slotSum += float64(s.NumColors())
			out.slotN++
			if round == 0 && k == 0 {
				first = s
			}
		}
	}
	if tr != nil {
		tr.finish(out, forcedGC)
	}
	// Solving is deterministic: the first instance solved again through
	// the public Solve must give the very same schedule. In a traced run
	// this also compares the traced path with the public one, and the two
	// times of the same instance show the tracing overhead.
	resolveStart := time.Now()
	again, err := b.solve(b.insts[0])
	if b.traced && len(out.opNs) > 0 {
		out.info["instance0_traced_s"] = float64(out.opNs[0]) / 1e9
		out.info["instance0_untraced_s"] = time.Since(resolveStart).Seconds()
	}
	switch {
	case err != nil:
		out.problem("re-solve of instance 0: %v", err)
	case first != nil && !identical(first, again):
		out.problem("re-solve of instance 0 gave a different schedule")
	}
	return out
}

// identical reports whether two schedules agree bitwise.
func identical(a, b *problem.Schedule) bool {
	if len(a.Colors) != len(b.Colors) || len(a.Powers) != len(b.Powers) {
		return false
	}
	for i := range a.Colors {
		if a.Colors[i] != b.Colors[i] || math.Float64bits(a.Powers[i]) != math.Float64bits(b.Powers[i]) {
			return false
		}
	}
	return true
}
