package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ser"
)

// The facade test is the paper's Fig. 1 written against internal/core —
// it doubles as a compilation check that every re-exported constructor
// instantiates.

func TestFacadePageRank(t *testing.T) {
	g := graph.RMAT(7, 4, 3, graph.RMATOptions{NoSelfLoops: true})
	part, err := HashPartition(g.NumVertices(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5
	sum := Sum[float64]()

	pr := make([]float64, g.NumVertices())
	met, err := Run(Config{Part: part}, func(w *Worker) {
		msg := NewCombinedMessage[float64](w, ser.Float64Codec{}, sum)
		agg := NewAggregator[float64](w, ser.Float64Codec{}, sum, 0)
		n := float64(w.NumVertices())
		local := make([]float64, w.LocalCount())
		w.Compute = func(li int) {
			if w.Superstep() == 1 {
				local[li] = 1.0 / n
			} else {
				s := agg.Result() / n
				m, _ := msg.Message(li)
				local[li] = 0.15/n + 0.85*(m+s)
			}
			if w.Superstep() <= iters {
				nbrs := g.Neighbors(w.GlobalID(li))
				if len(nbrs) > 0 {
					share := local[li] / float64(len(nbrs))
					for _, v := range nbrs {
						msg.SendMessage(v, share)
					}
				} else {
					agg.Add(local[li])
				}
			} else {
				pr[w.GlobalID(li)] = local[li]
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.Supersteps != iters+1 {
		t.Errorf("supersteps=%d", met.Supersteps)
	}
	total := 0.0
	for _, v := range pr {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("ranks sum to %v", total)
	}
}

func TestFacadeAllChannelConstructors(t *testing.T) {
	g := graph.Undirectify(graph.Chain(10))
	part, err := GreedyPartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	min := Min[uint32]()
	_, err = Run(Config{Part: part}, func(w *Worker) {
		vals := make([]uint32, w.LocalCount())
		dm := NewDirectMessage[uint32](w, ser.Uint32Codec{})
		cm := NewCombinedMessage[uint32](w, ser.Uint32Codec{}, min)
		sc := NewScatterCombine[uint32](w, ser.Uint32Codec{}, min)
		rr := NewRequestRespond[uint32](w, ser.Uint32Codec{}, func(li int) uint32 { return vals[li] })
		pr := NewPropagation[uint32](w, ser.Uint32Codec{}, min)
		// a custom function goes through the CombinerFunc adapter
		wp := NewWeightedPropagation[int64](w, ser.Int64Codec{},
			CombinerFunc(func(a, b int64) int64 {
				if a < b {
					return a
				}
				return b
			}),
			func(m int64, wt int32) int64 { return m + int64(wt) })
		w.Compute = func(li int) {
			id := w.GlobalID(li)
			switch w.Superstep() {
			case 1:
				vals[li] = id
				dm.SendMessage(id, 1)
				cm.SendMessage(0, id)
				for _, v := range g.Neighbors(id) {
					sc.AddAddr(w.Addr(v))
					pr.AddEdge(v)
					wp.AddWeightedEdge(v, 1)
				}
				sc.SetMessage(id)
				pr.SetValue(id)
				if id == 0 {
					wp.SetValue(0)
				}
				rr.AddRequest(0)
			case 2:
				if len(dm.Messages(li)) != 1 {
					t.Errorf("direct message lost")
				}
				if v, ok := rr.Respond(); !ok || v != 0 {
					t.Errorf("respond %d %v", v, ok)
				}
				if v, ok := pr.Value(li); !ok || v != 0 {
					t.Errorf("propagation %d %v", v, ok)
				}
				if v, ok := wp.Value(li); !ok || v != int64(id) {
					t.Errorf("weighted propagation %d %v", v, ok)
				}
				_, _ = sc.Message(li)
				_, _ = cm.Message(li)
				w.VoteToHalt()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
