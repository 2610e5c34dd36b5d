package bsp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/partition"
)

// Inbox.Group sorts in place; every vertex must see its arrivals in
// arrival order, superstep after superstep on the same arrays, and a
// superstep with no arrivals must leave the last grouping readable only
// at its own step.
func TestInboxGroupKeepsArrivalOrder(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(1))
	in := NewInbox[int](n)
	for step := int32(1); step <= 20; step++ {
		want := make([][]int, n)
		arrivals := rng.Intn(400)
		if step%5 == 0 {
			arrivals = 0
		}
		for k := 0; k < arrivals; k++ {
			li := rng.Intn(n)
			if step%3 == 0 {
				li %= 3 // a few receivers with long lists
			}
			want[li] = append(want[li], k)
			in.Rx.Add(uint32(li), k)
		}
		in.Group(step)
		if len(in.Rx.Idx) != 0 || len(in.Rx.Vals) != 0 {
			t.Fatalf("superstep %d: Group left %d arrivals in Rx", step, len(in.Rx.Idx))
		}
		for li := 0; li < n; li++ {
			got := in.Messages(li, step)
			if arrivals == 0 {
				if got != nil {
					t.Fatalf("superstep %d had no arrivals, vertex %d reads %v", step, li, got)
				}
				continue
			}
			if !slices.Equal(got, want[li]) {
				t.Fatalf("superstep %d vertex %d: got %v want %v", step, li, got, want[li])
			}
		}
	}
}

// Outbox stages one slot per destination vertex: repeats fold in staging
// order, and Drain lists each vertex once in first-touch order.
func TestOutboxFoldsInFirstTouchOrder(t *testing.T) {
	o := NewOutbox[string](partition.MustHash(16, 2)) // 8 vertices per worker
	cat := func(a, b string) string { return a + b }
	for _, s := range []struct {
		li uint32
		m  string
	}{{3, "a"}, {1, "b"}, {3, "c"}, {0, "d"}, {1, "e"}} {
		o.Stage(1, s.li, s.m, 7, cat)
	}
	idx, vals := o.Drain(1)
	if !slices.Equal(idx, []uint32{3, 1, 0}) || !slices.Equal(vals, []string{"ac", "be", "d"}) {
		t.Fatalf("drained %v %v", idx, vals)
	}
	if idx, _ := o.Drain(1); len(idx) != 0 {
		t.Fatalf("second drain returned %v", idx)
	}
	o.Stage(1, 3, "x", 8, cat) // a new superstep does not fold into a stale slot
	if _, vals := o.Drain(1); !slices.Equal(vals, []string{"x"}) {
		t.Fatalf("next superstep drained %v", vals)
	}
}
