package main

import (
	"fmt"
	"math"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/seq"
)

// windowSize is how many vertices of every job's result the client
// fetches and checks; the first and last job are checked in full.
const windowSize = 1024

// oracle is the sequential reference result of one (dataset, algorithm)
// pair, computed once per run outside every clock.
type oracle struct {
	ranks  []float64
	labels []graph.VertexID
	seed   int64
}

func newOracle(g *graph.Graph, req jobs.Request, seed int64) (*oracle, error) {
	o := &oracle{seed: seed}
	switch req.Algorithm {
	case "pagerank":
		o.ranks = seq.PageRank(g, algorithms.DefaultPageRankIterations)
	case "sv", "wcc":
		o.labels = seq.ConnectedComponents(g)
	default:
		return nil, fmt.Errorf("no oracle for algorithm %q", req.Algorithm)
	}
	return o, nil
}

func (o *oracle) vertices() int { return max(len(o.ranks), len(o.labels)) }

// window is the offset of job i's result page: it rotates through the
// vertex range from a seed-dependent start, so over a run every part of
// the result is compared.
func (o *oracle) window(i int) int {
	span := o.vertices() - windowSize
	if span <= 0 {
		return 0
	}
	start := int(uint64(o.seed)*2654435761%uint64(span)) + i*windowSize
	return start % span
}

// resultPage is the client's view of GET /v1/jobs/{id}/result.
type resultPage struct {
	Vertices int                `json:"vertices"`
	Offset   int                `json:"offset"`
	Labels   []graph.VertexID   `json:"labels"`
	Ranks    []float64          `json:"ranks"`
	Metrics  algorithms.Metrics `json:"metrics"`
}

// check compares one result page with the oracle; want is the number of
// entries the page must hold.
func (o *oracle) check(p *resultPage, want int) error {
	if p.Vertices != o.vertices() {
		return fmt.Errorf("result covers %d vertices, oracle %d", p.Vertices, o.vertices())
	}
	if p.Offset < 0 || p.Offset+want > o.vertices() {
		return fmt.Errorf("result page at offset %d, beyond %d vertices", p.Offset, o.vertices())
	}
	if got := max(len(p.Ranks), len(p.Labels)); got != want {
		return fmt.Errorf("result page holds %d entries at offset %d, want %d", got, p.Offset, want)
	}
	if o.ranks != nil {
		return checkRanks(p.Ranks, o.ranks[p.Offset:])
	}
	return checkLabels(p.Labels, o.labels[p.Offset:])
}

// checkRanks uses the 1e-9 absolute tolerance the repo's own tests
// hold the engines to.
func checkRanks(got, want []float64) error {
	for i, r := range got {
		if math.Abs(r-want[i]) > 1e-9 {
			return fmt.Errorf("rank %d is %g, oracle %g", i, r, want[i])
		}
	}
	return nil
}

func checkLabels(got, want []graph.VertexID) error {
	for i, l := range got {
		if l != want[i] {
			return fmt.Errorf("label %d is %d, oracle %d", i, l, want[i])
		}
	}
	return nil
}

// checkResult compares a whole in-process result with the oracle.
func (o *oracle) checkResult(res *algorithms.Result) error {
	if o.ranks != nil {
		if len(res.Ranks) != len(o.ranks) {
			return fmt.Errorf("result has %d ranks, oracle %d", len(res.Ranks), len(o.ranks))
		}
		return checkRanks(res.Ranks, o.ranks)
	}
	if len(res.Labels) != len(o.labels) {
		return fmt.Errorf("result has %d labels, oracle %d", len(res.Labels), len(o.labels))
	}
	return checkLabels(res.Labels, o.labels)
}
