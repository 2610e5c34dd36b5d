package jobs

import "repro/internal/workerproc"

// WithSharedPool makes the manager run its distributed jobs on the test
// binary's shared worker pool instead of one of its own, and leave it
// open at Close: every manager of the binary then lands on the same warm
// processes. Give it together with WithWorkerProcs.
func WithSharedPool(p *workerproc.Pool) Option {
	return func(m *Manager) { m.pool, m.poolBorrowed = p, true }
}
