package channel

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// Observer-seam overhead benchmarks: the same DirectMessage ring
// workload with the seam disabled (the pinned configuration — must cost
// nothing next to BenchmarkDirectMessageRing) and enabled (the price of
// a full per-superstep trace).

func benchRunObserved(b *testing.B, o obs.Observer, setup func(w *engine.Worker)) {
	b.Helper()
	part := partition.MustHash(microVertices, microWorkers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 100, Observer: o}, setup); err != nil {
			b.Fatal(err)
		}
	}
}

func ringSetup(w *engine.Worker) {
	ch := NewDirectMessage[uint32](w, ser.Uint32Codec{})
	w.Compute = func(li int) {
		id := w.GlobalID(li)
		if w.Superstep() <= microSteps {
			ch.Send(w.Addr((id+1)%microVertices), id)
		} else {
			w.VoteToHalt()
		}
	}
}

func BenchmarkTraceObserverOff(b *testing.B) {
	benchRunObserved(b, nil, ringSetup)
}

func BenchmarkTraceObserverOn(b *testing.B) {
	tr := obs.NewTrace(microWorkers)
	benchRunObserved(b, tr, ringSetup)
}

// Flow-matrix seam overhead: the same ring workload with the flow
// accumulator detached (pinned — a detached seam is one nil check per
// destination at flush time and must cost nothing next to
// BenchmarkDirectMessageRing) and attached (lock-free atomic adds on
// preallocated cells; still allocation-free).

func benchRunFlows(b *testing.B, flows *obs.FlowAccum, setup func(w *engine.Worker)) {
	b.Helper()
	part := partition.MustHash(microVertices, microWorkers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Part: part, MaxSupersteps: 100, Flows: flows}, setup); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowStatsOff(b *testing.B) {
	benchRunFlows(b, nil, ringSetup)
}

func BenchmarkFlowStatsOn(b *testing.B) {
	benchRunFlows(b, obs.NewFlowAccum(microWorkers), ringSetup)
}
