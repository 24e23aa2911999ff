package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/problem"
	"repro/internal/sinr"
)

// checker is the benchmark's own statement of the bidirectional SINR
// constraint, written from the model's definition and sharing no code
// with internal/sinr: under the square-root assignment p_i = √ℓ_i, a set
// of requests may transmit together when, at both endpoints w of every
// member i,
//
//	p_i/ℓ_i ≥ β·(Σ_{j≠i} p_j/min{ℓ(u_j,w), ℓ(v_j,w)} + ν)
//
// up to the relative tolerance sinr.Tol, where ℓ = d^α. Distances come
// from the node coordinates and losses from math.Pow, so the check shares
// neither the program's distance nor its loss arithmetic.
type checker struct {
	m      sinr.Model
	x, y   []float64 // node coordinates
	u, v   []int     // request endpoints
	power  []float64 // √ℓ_i
	signal []float64 // p_i/ℓ_i
}

func newChecker(in *problem.Instance, m sinr.Model) (*checker, error) {
	e, ok := in.Space.(*geom.Euclidean)
	if !ok || e.Dim() != 2 {
		return nil, errors.New("checker: instance is not in the Euclidean plane")
	}
	c := &checker{m: m}
	for k := 0; k < e.N(); k++ {
		p := e.Point(k)
		c.x = append(c.x, p[0])
		c.y = append(c.y, p[1])
	}
	for _, r := range in.Reqs {
		c.u = append(c.u, r.U)
		c.v = append(c.v, r.V)
		loss := c.loss(math.Hypot(c.x[r.U]-c.x[r.V], c.y[r.U]-c.y[r.V]))
		p := math.Sqrt(loss)
		c.power = append(c.power, p)
		c.signal = append(c.signal, p/loss)
	}
	return c, nil
}

func (c *checker) loss(d float64) float64 { return math.Pow(d, c.m.Alpha) }

// dist is the distance from the closer endpoint of request j to node w.
func (c *checker) dist(j, w int) float64 {
	du := math.Hypot(c.x[c.u[j]]-c.x[w], c.y[c.u[j]]-c.y[w])
	dv := math.Hypot(c.x[c.v[j]]-c.x[w], c.y[c.v[j]]-c.y[w])
	return min(du, dv)
}

// feasible checks that the requests of set can transmit together.
func (c *checker) feasible(set []int) error {
	for _, i := range set {
		for _, w := range [2]int{c.u[i], c.v[i]} {
			var interf float64
			for _, j := range set {
				if j != i {
					interf += c.power[j] / c.loss(c.dist(j, w))
				}
			}
			s := c.signal[i]
			if margin := (s - c.m.Beta*(interf+c.m.Noise)) / s; !(margin >= -sinr.Tol) {
				return fmt.Errorf("request %d violates its SINR constraint at node %d (margin %.3g)", i, w, margin)
			}
		}
	}
	return nil
}

// schedule checks a batch schedule: every request has a color, the colors
// used are exactly 0..C-1, every power is √ℓ_i, and every color class is
// feasible.
func (c *checker) schedule(s *problem.Schedule) error {
	n := len(c.u)
	if len(s.Colors) != n || len(s.Powers) != n {
		return fmt.Errorf("schedule covers %d colors and %d powers for %d requests", len(s.Colors), len(s.Powers), n)
	}
	var classes [][]int
	for i, col := range s.Colors {
		if col < 0 || col >= n {
			return fmt.Errorf("request %d has color %d", i, col)
		}
		for len(classes) <= col {
			classes = append(classes, nil)
		}
		classes[col] = append(classes[col], i)
		if p := s.Powers[i]; !(math.Abs(p-c.power[i]) <= 1e-12*c.power[i]) {
			return fmt.Errorf("request %d has power %v, want √ℓ = %v", i, p, c.power[i])
		}
	}
	for col, class := range classes {
		if len(class) == 0 {
			return fmt.Errorf("color %d is empty", col)
		}
		if err := c.feasible(class); err != nil {
			return fmt.Errorf("color %d: %w", col, err)
		}
	}
	return nil
}
