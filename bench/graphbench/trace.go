package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one job share Job; Parent is the ID of the span
// that caused this one (0 for a job's root span). Times are nanoseconds
// since the tracer was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// records nothing, which is how the traced pass runs its untraced
// comparison jobs.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID for children to name.
func (t *tracer) add(parent int, job, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// open reserves a span whose children are recorded before it ends; the
// returned func closes it.
func (t *tracer) open(parent int, job, name string) (id int, done func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(parent, job, name, start, start)
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// timed runs f inside a span.
func (t *tracer) timed(parent int, job, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(parent, job, name, start, end)
	return end.Sub(start)
}

// residualShare is, over the root spans called rootName, the share of
// their time no child span covers: the job time the trace cannot
// attribute to a layer. Children may overlap (status polls run while the
// job does), so covered time is the union of the child intervals.
func (t *tracer) residualShare(rootName string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total, uncovered int64
	for _, root := range t.spans {
		if root.Parent != 0 || root.Name != rootName {
			continue
		}
		kids := children[root.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), root.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, root.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		total += root.EndNS - root.StartNS
		uncovered += root.EndNS - root.StartNS - covered
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}
