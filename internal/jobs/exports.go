package jobs

import (
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/graph"
)

// viewExports is the table of snapshot files a manager has written for
// its worker pool, one per view a distributed job ran on: a view is
// exported once, not per job. It is its own object rather than manager
// state because the catalog's views hold on to it through their
// retirement hooks, possibly long after the manager closed.
type viewExports struct {
	dir string // the worker pool's directory
	log *slog.Logger

	mu     sync.Mutex
	byView map[*catalog.View]*viewExport // nil once closed
}

// viewExport is the snapshot file of one view. It is written once — so
// its path names its content, which is what the workers' caches key on —
// and removed when the catalog retires the view, or at close. refs
// counts the jobs running on it: a view retired under a running job (a
// static dataset evicted mid-run) keeps its file until that job is done,
// so a recovery respawn can still load it.
type viewExport struct {
	ready   chan struct{} // closed once path and err are set
	path    string
	err     error
	refs    int
	retired bool
}

func newViewExports(dir string, log *slog.Logger) *viewExports {
	return &viewExports{dir: dir, log: log, byView: make(map[*catalog.View]*viewExport)}
}

// acquire returns the path of the view's export, writing it if this is
// the first distributed job on the view, and a release closure to run
// when the job is done with it.
func (t *viewExports) acquire(view *catalog.View) (string, func(), error) {
	t.mu.Lock()
	ex, ok := t.byView[view]
	if !ok {
		ex = &viewExport{ready: make(chan struct{})}
		t.byView[view] = ex
	}
	ex.refs++
	t.mu.Unlock()
	if !ok {
		ex.path, ex.err = t.write(view)
		close(ex.ready)
		if ex.err == nil {
			view.OnRetire(func() { t.drop(view, ex, true) })
		}
	}
	<-ex.ready
	release := func() { t.drop(view, ex, false) }
	if ex.err != nil {
		release()
		return "", nil, ex.err
	}
	return ex.path, release, nil
}

func (t *viewExports) write(view *catalog.View) (string, error) {
	f, err := os.CreateTemp(t.dir, "view-*.bin") // reserves a unique name
	if err != nil {
		return "", fmt.Errorf("jobs: export snapshot: %w", err)
	}
	f.Close()
	t0 := time.Now()
	err = graph.WriteSnapshotFile(f.Name(), view.Graph, []graph.Placement{{
		Name:    view.Placement,
		Workers: view.Part.NumWorkers(),
		Owner:   view.Part.Owners(),
	}})
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("jobs: export snapshot: %w", err)
	}
	t.log.Debug("view exported for the worker pool", "path", f.Name(),
		"placement", view.Placement, "took", time.Since(t0))
	return f.Name(), nil
}

// drop releases one job's hold on an export (retire false) or records
// that the catalog retired the view (retire true), and removes the file
// once both no job uses it and it is retired or was never written. After
// close it does nothing: the files are gone, and a view that outlives
// the manager must not touch the directory again.
func (t *viewExports) drop(view *catalog.View, ex *viewExport, retire bool) {
	t.mu.Lock()
	if t.byView == nil {
		t.mu.Unlock()
		return
	}
	if retire {
		ex.retired = true
	} else {
		ex.refs--
	}
	remove := ex.refs == 0 && (ex.retired || ex.err != nil)
	if remove && t.byView[view] == ex {
		delete(t.byView, view)
	}
	t.mu.Unlock()
	if remove && ex.err == nil {
		os.Remove(ex.path)
	}
}

// close removes every export; the caller has drained its jobs.
func (t *viewExports) close() {
	t.mu.Lock()
	exports := t.byView
	t.byView = nil
	t.mu.Unlock()
	for _, ex := range exports {
		<-ex.ready
		if ex.err == nil {
			os.Remove(ex.path)
		}
	}
}
