package main

import (
	"runtime"
	"time"

	oblivious "repro"
	"repro/internal/affect"
	"repro/internal/affect/sparse"
	"repro/internal/coloring"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// trackerCounts accumulates what the sparse trackers did.
type trackerCounts struct {
	canAdd, accepted, removes int64
	canAddNs, updateNs        int64
}

// countingEngine is the sparse engine with counting, timing trackers. It
// embeds the engine, so every other method the program may look for on
// an affectance engine (the sinr.Cache accessors, PairBound,
// InterferenceBound, Bytes) passes straight through and a solve takes the
// same path with or without it.
type countingEngine struct {
	*sparse.Engine
	counts *trackerCounts
}

// NewSetTracker implements sinr.TrackerProvider.
func (e countingEngine) NewSetTracker(m sinr.Model, v sinr.Variant) sinr.SetTracker {
	tr := e.Engine.NewSetTracker(m, v)
	if tr == nil {
		return nil
	}
	return &countingTracker{SetTracker: tr, counts: e.counts}
}

// countingTracker counts and times CanAdd, Add and Remove.
type countingTracker struct {
	sinr.SetTracker
	counts *trackerCounts
}

func (t *countingTracker) CanAdd(i int) bool {
	start := time.Now()
	ok := t.SetTracker.CanAdd(i)
	t.counts.canAddNs += time.Since(start).Nanoseconds()
	t.counts.canAdd++
	if ok {
		t.counts.accepted++
	}
	return ok
}

func (t *countingTracker) Add(i int) {
	start := time.Now()
	t.SetTracker.Add(i)
	t.counts.updateNs += time.Since(start).Nanoseconds()
}

func (t *countingTracker) Remove(i int) {
	start := time.Now()
	t.SetTracker.Remove(i)
	t.counts.updateNs += time.Since(start).Nanoseconds()
	t.counts.removes++
}

// addTo writes the per-operation tracker metrics of ops operations.
func (c *trackerCounts) addTo(layers map[string]float64, ops int) {
	per := float64(max(ops, 1))
	layers["sparse.canadd_calls"] = float64(c.canAdd) / per
	if c.canAdd > 0 {
		layers["sparse.canadd_accept_ratio"] = float64(c.accepted) / float64(c.canAdd)
	}
	layers["sparse.canadd_s"] = float64(c.canAddNs) / 1e9 / per
	layers["sparse.update_s"] = float64(c.updateNs) / 1e9 / per
	layers["sparse.remove_calls"] = float64(c.removes) / per
}

// memStats notes the allocation and GC counters at the start of a traced
// run.
type memStats struct{ alloc, gcs uint64 }

func readMem() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{ms.TotalAlloc, uint64(ms.NumGC)}
}

// addTo writes the per-operation allocation and GC cycles since m, not
// counting the forced collections the benchmark itself ran.
func (m memStats) addTo(layers map[string]float64, ops, forced int) {
	now := readMem()
	per := float64(max(ops, 1))
	layers["runtime.alloc_mb"] = float64(now.alloc-m.alloc) / (1 << 20) / per
	layers["runtime.gc_cycles"] = float64(int64(now.gcs-m.gcs)-int64(forced)) / per
}

// batchTrace accumulates the per-layer figures of a traced batch run.
type batchTrace struct {
	mem    memStats
	counts trackerCounts
	// totals are seconds summed over the run; peaks are maxima.
	totals map[string]float64
	peaks  map[string]float64
	// covered is the time the named layers account for, per operation.
	covered []float64
	// solveSpan is the pipeline's own solve span, summed.
	solveSpan float64
}

func newBatchTrace() *batchTrace {
	return &batchTrace{mem: readMem(), totals: map[string]float64{}, peaks: map[string]float64{}}
}

func (t *batchTrace) peak(name string, v float64) { t.peaks[name] = max(t.peaks[name], v) }

// layeredGreedy is the greedy solver's path, called layer by layer the
// way the public Solve calls it: square-root powers, the affectance
// engine the mode resolves to (sparse wrapped in the counting decorator),
// first-fit coloring on the model carrying that engine, and exact
// validation.
func (t *batchTrace) layeredGreedy(in *problem.Instance, mode oblivious.AffectanceMode) (*problem.Schedule, error) {
	v := sinr.Bidirectional
	powers := power.Powers(model, in, power.Sqrt())
	t1 := time.Now()
	var (
		cache sinr.Cache
		layer string
		// size reads the engine's resident bytes after the coloring: the
		// dense engine builds its transposed rows only when greedy first
		// walks them.
		size func() int64
	)
	if mode.Resolve(in, oblivious.DefaultSparseEpsilon) == oblivious.AffectSparse {
		e, err := sparse.New(model, v, in, powers, sparse.Options{Epsilon: oblivious.DefaultSparseEpsilon})
		if err != nil {
			return nil, err
		}
		cache, layer, size = countingEngine{Engine: e, counts: &t.counts}, "sparse", e.Bytes
		t.peak("sparse.near_entries", float64(e.Entries()))
		t.peak("sparse.cells", float64(e.Cells()))
	} else {
		c := affect.New(model, v, in, powers)
		cache, layer, size = c, "affect", c.Bytes
	}
	t2 := time.Now()
	s, err := coloring.GreedyFirstFit(model.WithCache(cache), in, v, powers, nil)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	t.peak(layer+".bytes_mb", float64(size())/(1<<20))
	if err := model.CheckSchedule(in, v, s); err != nil {
		return nil, err
	}
	t4 := time.Now()
	t.totals[layer+".build_s"] += t2.Sub(t1).Seconds()
	t.totals["coloring.greedy_s"] += t3.Sub(t2).Seconds()
	t.totals["sinr.check_s"] += t4.Sub(t3).Seconds()
	t.covered = append(t.covered, t4.Sub(t1).Seconds())
	return s, nil
}

var pipelineStages = []string{"stage1", "stage2", "stage3", "stage4", "stage5"}

// observedSolve is the public Solve with a fresh collector attached; the
// layer figures are the exact sums of the pipeline's span histograms.
func (t *batchTrace) observedSolve(b *batch, in *problem.Instance) (*problem.Schedule, error) {
	col := obs.NewCollector()
	s, err := b.solve(in, oblivious.WithObserver(col))
	if err != nil {
		return nil, err
	}
	sec := func(name string) float64 { return float64(col.Histogram(name).Sum()) / 1e9 }
	var covered float64
	for _, st := range pipelineStages {
		covered += sec("span/pipeline/" + st)
	}
	t.covered = append(t.covered, covered)
	t.totals["treestar.stage2_s"] += sec("span/pipeline/stage2")
	t.totals["treestar.stage3_s"] += sec("span/pipeline/stage3")
	t.totals["treestar.stage5_s"] += sec("span/pipeline/stage5")
	t.totals["hst.build_s"] += sec("span/pipeline/hst-build")
	t.totals["affect.build_s"] += float64(col.Histogram("affect/build_ns").Sum()) / 1e9
	t.totals["sparse.build_s"] += float64(col.Histogram("sparse/build_ns").Sum()) / 1e9
	t.totals["treestar.classes"] += float64(col.Histogram("span/pipeline/stage1").Count())
	t.solveSpan += sec("span/solve/pipeline")
	t.peak("affect.bytes_mb", col.Gauge("affect/bytes").Value()/(1<<20))
	t.peak("sparse.bytes_mb", col.Gauge("sparse/bytes").Value()/(1<<20))
	return s, nil
}

// finish writes the per-layer metrics: per-operation means of the
// totals, the peaks, and how much of the traced operation time the
// layers cover.
func (t *batchTrace) finish(out *outcome, forcedGC int) {
	ops := len(out.opNs)
	t.mem.addTo(out.layers, ops, forcedGC)
	per := float64(max(ops, 1))
	for name, v := range t.totals {
		out.layers[name] = v / per
	}
	for name, v := range t.peaks {
		out.layers[name] = v
	}
	t.counts.addTo(out.layers, ops)
	var opS, coveredS float64
	for k, ns := range out.opNs {
		opS += float64(ns) / 1e9
		coveredS += t.covered[k]
	}
	out.info["traced_op_mean_ms"] = meanMs(out.opNs)
	out.info["layer_sum_s_per_op"] = coveredS / per
	if opS > 0 {
		out.info["layer_share_of_op"] = coveredS / opS
	}
	if t.solveSpan > 0 {
		out.info["solve_span_s_per_op"] = t.solveSpan / per
	}
}

// churnTrace accumulates the per-layer figures of a traced online run.
type churnTrace struct {
	c                  *churn
	mem                memStats
	stats              onlineStats
	arriveNs, departNs []int64
}

// onlineStats are the engine counters the traced run reports.
type onlineStats struct{ rowOps, moves, repairs int64 }

func statsOf(c *churn) onlineStats {
	st := c.eng.Stats()
	return onlineStats{st.RowOps, int64(st.Moves), int64(st.Repairs)}
}

func newChurnTrace(c *churn) *churnTrace {
	*c.counts = trackerCounts{}
	return &churnTrace{c: c, mem: readMem(), stats: statsOf(c)}
}

// event records one timed event; it does nothing on a nil trace.
func (t *churnTrace) event(arrive bool, ns int64) {
	if t == nil {
		return
	}
	if arrive {
		t.arriveNs = append(t.arriveNs, ns)
	} else {
		t.departNs = append(t.departNs, ns)
	}
}

func (t *churnTrace) finish(out *outcome) {
	events := len(out.opNs)
	per := float64(max(events, 1))
	t.mem.addTo(out.layers, events, 0)
	t.c.counts.addTo(out.layers, events)
	now := statsOf(t.c)
	out.layers["online.arrive_p50_us"] = quantileNs(t.arriveNs, 0.5) / 1e3
	out.layers["online.depart_p50_us"] = quantileNs(t.departNs, 0.5) / 1e3
	out.layers["online.arrive_p99_us"] = quantileNs(t.arriveNs, 0.99) / 1e3
	out.layers["online.rowops_per_event"] = float64(now.rowOps-t.stats.rowOps) / per
	out.layers["online.moves_per_event"] = float64(now.moves-t.stats.moves) / per
	out.layers["online.repairs_per_event"] = float64(now.repairs-t.stats.repairs) / per
	e := t.c.engine
	out.layers["sparse.build_s"] = t.c.buildS
	out.layers["sparse.bytes_mb"] = float64(e.Bytes()) / (1 << 20)
	out.layers["sparse.near_entries"] = float64(e.Entries())
	out.layers["sparse.cells"] = float64(e.Cells())
	out.info["traced_op_mean_ms"] = meanMs(out.opNs)
	tracker := t.c.counts
	out.info["layer_share_of_op"] = float64(tracker.canAddNs+tracker.updateNs) / float64(max(sum(out.opNs), 1))
}
