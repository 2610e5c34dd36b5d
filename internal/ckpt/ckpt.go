// Package ckpt implements superstep checkpointing for the BSP engines:
// the checkpoint record format, the store interface that persists one
// record per (job, superstep, worker), and the Hook both engines thread
// through their configs (like Cancel/Fabric/Observer) to decide when to
// cut a checkpoint and where to restore from.
//
// The cut is barrier-aligned: every worker snapshots its state at the
// same program point of the same superstep — after the compute phase and
// the channels' AfterCompute, before the first exchange round — and the
// record additionally captures the raw incoming frame bytes of every
// exchange round of that superstep. A restore replays those rounds
// locally (serialize into a discard buffer to drain the staged outboxes,
// then feed the saved frames through the normal deserialize path), which
// reconstructs every piece of derived state — inboxes, responses,
// aggregates — bit for bit without re-running compute or touching the
// fabric. The record is durable before the worker crosses the barrier
// that ends a checkpoint superstep (one crossing past its last exchange
// round), so a checkpoint either exists on all workers or
// is ignored on all workers (Store.LatestComplete only reports supersteps
// with every worker's record present and intact). Saving also prunes:
// a successful cut at superstep s discards records below s-Interval
// (Hook.AfterSave), bounding the store at roughly two cuts of state
// regardless of how long the job runs.
package ckpt

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Store persists checkpoint records, one per (job, superstep, worker).
type Store interface {
	// Put durably stores one worker's record for a superstep,
	// overwriting any previous record for the same key.
	Put(job string, superstep, worker int, data []byte) error
	// Get returns the record for (job, superstep, worker), verifying
	// integrity.
	Get(job string, superstep, worker int) ([]byte, error)
	// LatestComplete returns the highest superstep for which all of the
	// job's workers 0..workers-1 have an intact record, or 0 when no
	// complete checkpoint exists.
	LatestComplete(job string, workers int) (int, error)
}

// Hook configures checkpointing for one engine run. A nil Hook (or one
// without a Store) disables saving and restoring; Probe fires either
// way, which lets fault injection ride the same seam without a store.
type Hook struct {
	// Store persists and serves records; nil disables checkpointing.
	Store Store
	// Job keys this run's records in the store.
	Job string
	// Interval is the number of supersteps between checkpoints; a
	// checkpoint is cut at every superstep s with s % Interval == 0.
	// 0 never saves (restore-only hooks use this).
	Interval int
	// Restore, when > 0, makes every worker load the record for this
	// superstep before superstep Restore+1 runs. 0 starts fresh.
	Restore int
	// Probe, if non-nil, is called at every worker's cut point with
	// (worker id, superstep) — the deterministic fault-injection seam.
	Probe func(worker, superstep int)
}

// Pruner is optionally implemented by Stores that can discard records
// below a superstep. Dir implements it; stores that don't simply retain
// everything.
type Pruner interface {
	// PruneBelow removes every record of the job with superstep <
	// below. Best-effort: a record that cannot be removed is left for a
	// later prune (or the job-dir cleanup) rather than failing the job.
	PruneBelow(job string, below int) error
}

// Active reports whether h can save or restore records.
func (h *Hook) Active() bool { return h != nil && h.Store != nil }

// AfterSave discards checkpoints made obsolete by this worker's
// successful save at superstep s. The cut is published before the
// superstep's certifying barrier and the exchange rounds of s are
// themselves barriers, so by the time any worker saves s every worker
// has durably saved the previous due superstep s-Interval: everything
// below that is dead weight. Keeping s-Interval (not just s) matters
// because s itself is not complete yet — a peer can still die before
// its own Put. Without pruning a long job accumulates one checkpoint
// per due superstep, so disk usage would grow with job length instead
// of being bounded by two cuts of state size.
func (h *Hook) AfterSave(s int) {
	if !h.Active() || h.Interval <= 0 {
		return
	}
	p, ok := h.Store.(Pruner)
	if !ok {
		return
	}
	if below := s - h.Interval; below > 1 {
		_ = p.PruneBelow(h.Job, below)
	}
}

// ShouldSave reports whether a checkpoint is due at superstep s.
func (h *Hook) ShouldSave(s int) bool {
	return h.Active() && h.Interval > 0 && s%h.Interval == 0
}

// FireProbe invokes the fault-injection probe, if any.
func (h *Hook) FireProbe(worker, superstep int) {
	if h != nil && h.Probe != nil {
		h.Probe(worker, superstep)
	}
}

// Dir is the local-directory Store: records live at
// <root>/<job>/<superstep>/worker-<id>.ckpt, written atomically
// (temp file + rename) with a header carrying the payload's SHA-256 so
// Get and LatestComplete can reject torn or corrupted files — a record
// is only ever observed whole.
type Dir struct {
	root string
}

// NewDir creates a directory store rooted at root (created lazily).
func NewDir(root string) *Dir { return &Dir{root: root} }

// dirMagic heads every record file, versioning the container format.
var dirMagic = []byte("GRCKPT1\n")

const dirHeaderLen = 8 + sha256.Size

func (d *Dir) path(job string, superstep, worker int) string {
	return filepath.Join(d.root, job, strconv.Itoa(superstep),
		fmt.Sprintf("worker-%d.ckpt", worker))
}

// Put implements Store.
func (d *Dir) Put(job string, superstep, worker int, data []byte) error {
	dir := filepath.Join(d.root, job, strconv.Itoa(superstep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	sum := sha256.Sum256(data)
	file := make([]byte, 0, dirHeaderLen+len(data))
	file = append(file, dirMagic...)
	file = append(file, sum[:]...)
	file = append(file, data...)
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := tmp.Write(file); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(job, superstep, worker)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// Get implements Store.
func (d *Dir) Get(job string, superstep, worker int) ([]byte, error) {
	file, err := os.ReadFile(d.path(job, superstep, worker))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(file) < dirHeaderLen || string(file[:8]) != string(dirMagic) {
		return nil, fmt.Errorf("ckpt: %s: not a checkpoint record",
			d.path(job, superstep, worker))
	}
	data := file[dirHeaderLen:]
	sum := sha256.Sum256(data)
	if string(sum[:]) != string(file[8:dirHeaderLen]) {
		return nil, fmt.Errorf("ckpt: %s: checksum mismatch",
			d.path(job, superstep, worker))
	}
	return data, nil
}

// PruneBelow implements Pruner: superstep directories of the job below
// the cutoff are removed wholesale. Concurrent pruners (every worker
// prunes after every save) race benignly — RemoveAll of a directory a
// peer already removed is a no-op, and nothing writes to a superstep
// two intervals old.
func (d *Dir) PruneBelow(job string, below int) error {
	entries, err := os.ReadDir(filepath.Join(d.root, job))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ckpt: %w", err)
	}
	var first error
	for _, e := range entries {
		if s, serr := strconv.Atoi(e.Name()); serr == nil && s > 0 && s < below {
			if rerr := os.RemoveAll(filepath.Join(d.root, job, e.Name())); rerr != nil && first == nil {
				first = fmt.Errorf("ckpt: %w", rerr)
			}
		}
	}
	return first
}

// LatestComplete implements Store: scan the job's superstep directories
// in descending order and return the first one where every worker's
// record is present and intact. Partially written checkpoints (a worker
// died mid-superstep, before its Put) are skipped, which is what makes
// the cut barrier-consistent: the previous complete superstep is the
// recovery point.
func (d *Dir) LatestComplete(job string, workers int) (int, error) {
	entries, err := os.ReadDir(filepath.Join(d.root, job))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	var steps []int
	for _, e := range entries {
		if s, serr := strconv.Atoi(e.Name()); serr == nil && s > 0 {
			steps = append(steps, s)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, s := range steps {
		ok := true
		for w := 0; w < workers; w++ {
			if _, gerr := d.Get(job, s, w); gerr != nil {
				ok = false
				break
			}
		}
		if ok {
			return s, nil
		}
	}
	return 0, nil
}
