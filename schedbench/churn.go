package main

import (
	"math/rand"
	"time"

	"repro/internal/affect/sparse"
	"repro/internal/online"
	"repro/internal/online/sim"
	"repro/internal/power"
	"repro/internal/sinr"
)

const (
	// churnBlock is one round of the online workload.
	churnBlock = 1000
	// churnBlocksPerSecond is how many blocks a run replays per second of
	// its length: about one second's worth of events today. A run replays
	// a fixed number of events, so code of any speed is measured on the
	// same stretch of the trace; the time only caps the run, at twice its
	// length.
	churnBlocksPerSecond = 5
	// churnCheckEvery is how many events pass between two full checks of
	// the engine's state.
	churnCheckEvery = 10 * churnBlock
)

// churn is the set-up online workload: an engine on the sparse trackers,
// filled to steady load, and the rest of a Poisson trace to replay.
type churn struct {
	trace  sim.Trace
	next   int // index of the next event to replay
	eng    *online.Engine
	check  *checker
	active []bool // which requests the trace has made active
	genS   float64
	// Traced runs only: the counting engine under the trackers, and the
	// cost of building it.
	counts *trackerCounts
	engine *sparse.Engine
	buildS float64
}

// newChurn draws an instance of churnN requests and a Poisson trace with
// arrival rate 1 and mean holding time churnN/2, so about churnN/2
// requests are active at steady state. Set-up builds the sparse engine
// and the online engine, replays the first churnFill events, which bring
// the active count to about 97% of that steady state, and replays one
// more as the warm-up operation.
func newChurn(seed int64, traced bool) (runner, error) {
	return newChurnSized(seed, traced, churnN, churnFill, churnMaxEvts)
}

// newChurnSized is newChurn for n requests, a fill of fill events and at
// most events measured events.
func newChurnSized(seed int64, traced bool, n, fill, events int) (*churn, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	in, err := uniform(rng, n)
	if err != nil {
		return nil, err
	}
	c := &churn{
		trace:  sim.Poisson(rng, n, 1, float64(n)/2, fill+1+events),
		active: make([]bool, n),
	}
	c.genS = time.Since(start).Seconds()
	if c.check, err = newChecker(in, model); err != nil {
		return nil, err
	}
	powers := power.Powers(model, in, power.Sqrt())
	buildStart := time.Now()
	e, err := sparse.New(model, sinr.Bidirectional, in, powers, sparse.Options{Epsilon: sparse.DefaultEpsilon})
	if err != nil {
		return nil, err
	}
	c.buildS = time.Since(buildStart).Seconds()
	var cache sinr.Cache = e
	if traced {
		c.counts = &trackerCounts{}
		c.engine = e
		cache = countingEngine{Engine: e, counts: c.counts}
	}
	c.eng, err = online.New(model.WithCache(cache), in, sinr.Bidirectional, powers,
		online.WithAdmission(online.FirstFit), online.WithRepair(online.LazyRepair))
	if err != nil {
		return nil, err
	}
	for c.next < fill+1 {
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *churn) genSeconds() float64 { return c.genS }

// step replays the next event of the trace and updates the bookkeeping.
func (c *churn) step() error {
	ev := c.trace[c.next]
	c.next++
	if ev.Arrive {
		if _, err := c.eng.Arrive(ev.Req); err != nil {
			return err
		}
	} else if err := c.eng.Depart(ev.Req); err != nil {
		return err
	}
	c.active[ev.Req] = ev.Arrive
	return nil
}

func (c *churn) run(d time.Duration) *outcome {
	out := newOutcome()
	var tr *churnTrace
	if c.counts != nil {
		tr = newChurnTrace(c)
	}
	blocks := min(max(1, int(d.Seconds())*churnBlocksPerSecond), (len(c.trace)-c.next)/churnBlock)
	start := time.Now()
	for block := 0; block < blocks && (block == 0 || time.Since(start) < 2*d); block++ {
		for k := 0; k < churnBlock; k++ {
			arrive := c.trace[c.next].Arrive
			evStart := time.Now()
			err := c.step()
			ns := time.Since(evStart).Nanoseconds()
			out.attempted++
			if err != nil {
				out.fail("event %d: %v", c.next-1, err)
				continue
			}
			out.opNs = append(out.opNs, ns)
			tr.event(arrive, ns)
			out.slotSum += float64(c.eng.NumSlots())
			out.slotN++
		}
		if out.attempted%churnCheckEvery == 0 {
			c.verify(out)
		}
	}
	c.verify(out)
	if len(out.opNs) >= 100 {
		out.info["event_p99_us"] = quantileNs(out.opNs, 0.99) / 1e3
	}
	out.info["events_left"] = len(c.trace) - c.next
	if tr != nil {
		tr.finish(out)
	}
	return out
}

// verify checks the engine against the benchmark's own bookkeeping: the
// active requests are exactly the placed ones, each in one slot, and
// every slot is feasible.
func (c *churn) verify(out *outcome) {
	placed := 0
	for s := 0; s < c.eng.NumSlots(); s++ {
		members := c.eng.Slot(s)
		for _, i := range members {
			if !c.active[i] || c.eng.SlotOf(i) != s {
				out.problem("after event %d: request %d sits in slot %d but is active=%v with slot %d",
					c.next, i, s, c.active[i], c.eng.SlotOf(i))
				return
			}
		}
		placed += len(members)
		if err := c.check.feasible(members); err != nil {
			out.problem("after event %d: slot %d: %v", c.next, s, err)
			return
		}
	}
	want := 0
	for i, a := range c.active {
		if a {
			want++
		}
		if a != (c.eng.SlotOf(i) >= 0) {
			out.problem("after event %d: request %d active=%v but slot %d", c.next, i, a, c.eng.SlotOf(i))
			return
		}
	}
	if placed != want {
		out.problem("after event %d: %d requests placed, %d active", c.next, placed, want)
	}
}
