package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/jobs"
)

const (
	// jobDeadline turns a hung job into a failed one: the client cancels
	// it and moves on.
	jobDeadline = 15 * time.Second
	// pollEvery is the client's sleep between status polls: every job's
	// wall includes half of it on average as detection lag. Polling is
	// not free on 2 cores — at 2 ms the same PageRank job measured ~8 ms
	// (15 %) slower than at 10 ms, at 25 ms the lag swamps the job — so
	// the client polls at a rate a real caller might.
	pollEvery = 5 * time.Millisecond
	// retainJobs is graphd's -retain. The default 256 keeps 256 result
	// vectors resident, so peak RSS would grow with the number of jobs a
	// run manages to fit in its window — a faster build would look fatter.
	retainJobs = 32
)

// daemon is one graphd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
}

// startDaemon launches graphd for w. The setup clock of the caller runs
// across this call: it returns as soon as the listener answers.
func startDaemon(l layout, w workload, gen string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(l.out, "graphd-"+w.Name+".log"))
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	args := []string{"-addr", addr, "-builtin", "none", "-log-level", "warn",
		"-sim-workers", strconv.Itoa(simWorkers), "-retain", strconv.Itoa(retainJobs),
		"-dataset", w.dataset + "=gen:" + gen}
	if w.workerProcs > 0 {
		args = append(args, "-worker-procs", strconv.Itoa(w.workerProcs))
	}
	cmd := exec.Command(filepath.Join(l.bin, "graphd"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// own process group, so stop can reap graphworkers a killed graphd
	// would orphan
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{}),
		client: &http.Client{Timeout: 10 * time.Second}}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal ourselves says nothing
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			drain(resp)
			return d, nil
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("graphd exited during start-up, see %s", logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("graphd did not answer on %s within 10s", addr)
		}
		time.Sleep(time.Millisecond)
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // only emptied so the connection is reused
	resp.Body.Close()
}

// stop ends graphd and everything in its process group, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt) // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
	}
	// graphd drained its jobs on SIGINT; whatever is left is stuck
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	d.client.CloseIdleConnections()
	d.log.Close()
}

// peakRSSMB reads graphd's VmHWM (worker subprocesses not included).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in process status")
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// errDaemonGone reports that graphd stopped answering; the run counts
// its remaining jobs as failed instead of waiting for each.
var errDaemonGone = errors.New("graphd stopped answering")

// jobSample is what the client learns from one finished job.
type jobSample struct {
	wallMS   float64
	netBytes int64
}

// runJob is one turn of the closed loop: submit, poll to a terminal
// state, fetch a result page. The clock runs from the POST to the page's
// last byte; the oracle comparison (and the full-result fetch, when
// asked) happen after it stops.
func (d *daemon) runJob(body []byte, orc *oracle, i int, full bool) (jobSample, error) {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobSample{}, fmt.Errorf("%w: %v", errDaemonGone, err)
	}
	var snap jobs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	drain(resp)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return jobSample{}, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	for !snap.State.Terminal() {
		if time.Since(start) > jobDeadline {
			return jobSample{}, d.abandon(snap.ID)
		}
		time.Sleep(pollEvery)
		if err := d.getJSON("/v1/jobs/"+snap.ID, &snap); err != nil {
			return jobSample{}, fmt.Errorf("%w: %v", errDaemonGone, err)
		}
	}
	if snap.State != jobs.StateDone {
		return jobSample{}, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	var page resultPage
	path := fmt.Sprintf("/v1/jobs/%s/result?offset=%d&limit=%d", snap.ID, orc.window(i), windowSize)
	if err := d.getJSON(path, &page); err != nil {
		return jobSample{}, err
	}
	s := jobSample{wallMS: ms(time.Since(start)), netBytes: page.Metrics.NetBytes}

	if err := orc.check(&page, min(windowSize, orc.vertices())); err != nil {
		return s, fmt.Errorf("job %s: %w", snap.ID, err)
	}
	if full {
		var whole resultPage
		if err := d.getJSON("/v1/jobs/"+snap.ID+"/result", &whole); err != nil {
			return s, err
		}
		if err := orc.check(&whole, orc.vertices()); err != nil {
			return s, fmt.Errorf("job %s full result: %w", snap.ID, err)
		}
	}
	return s, nil
}

// abandon cancels a job that ran past its deadline and waits briefly for
// graphd to confirm; a daemon that cannot even do that is gone.
func (d *daemon) abandon(id string) error {
	req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errDaemonGone, err)
	}
	drain(resp)
	var snap jobs.Snapshot
	for wait := time.Now(); time.Since(wait) < jobDeadline; time.Sleep(50 * time.Millisecond) {
		if err := d.getJSON("/v1/jobs/"+id, &snap); err != nil {
			return fmt.Errorf("%w: %v", errDaemonGone, err)
		}
		if snap.State.Terminal() {
			return fmt.Errorf("job %s passed the %s deadline and was cancelled", id, jobDeadline)
		}
	}
	return fmt.Errorf("%w: job %s passed the %s deadline and would not cancel", errDaemonGone, id, jobDeadline)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	Seed int64 `json:"seed"`
	tally
	Metrics map[string]measured `json:"metrics"`
	// Walls are the measured jobs' wall times in submission order; their
	// number is the sample count behind p50 and p90.
	Walls []float64 `json:"job_wall_ms"`
}

// runE2E measures one workload against fresh graphd subprocesses: p.setups
// cold starts for setup_s, then warm-up and the measured closed loop on
// the last of them.
func runE2E(l layout, w workload, p params, seed int64, progress io.Writer) (*e2eResult, error) {
	gen := w.genExpr(p, seed)
	g, err := catalog.Generate(gen)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(g, w.req, seed)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(w.req)
	if err != nil {
		return nil, err
	}
	res := &e2eResult{Seed: seed}
	var setups []float64
	var d *daemon
	for i := 0; i < p.setups; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startDaemon(l, w, gen); err != nil {
			return nil, err
		}
		_, err := d.runJob(body, orc, 0, true)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			err = fmt.Errorf("first job: %w", err)
		}
		res.op(err)
	}
	defer d.stop()
	fmt.Fprintf(progress, "%s seed %d: %d set-ups, median %.3fs\n", w.Name, seed, len(setups), median(setups))

	gone := false
	job := func(i int, full bool) (jobSample, bool) {
		if gone {
			res.op(errDaemonGone)
			return jobSample{}, false
		}
		s, err := d.runJob(body, orc, i, full)
		res.op(err)
		gone = errors.Is(err, errDaemonGone)
		return s, err == nil
	}
	for i := 0; i < p.warmup; i++ {
		job(i, false)
	}
	var walls, nets []float64
	start := time.Now()
	// The window closes on time once it holds minJobs jobs; a build too
	// slow for that reports what it has when the limit is reached.
	n := 0
	for ; ; n++ {
		elapsed := time.Since(start)
		if (elapsed >= p.window && n >= p.minJobs) || (elapsed >= p.limit && n > 0) {
			break
		}
		if s, ok := job(p.warmup+n, n == 0); ok {
			walls = append(walls, s.wallMS)
			nets = append(nets, float64(s.netBytes)/1e6)
		}
	}
	measuredWall := time.Since(start).Seconds()
	res.Walls = walls
	job(p.warmup+n, true) // the last job's result is checked in full, off the clock
	if len(walls) == 0 {
		return res, fmt.Errorf("%s: no job finished: %s", w.Name, strings.Join(res.Errors, "; "))
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return res, err
	}
	var missing []string
	res.Metrics, missing = collect(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"run_wall_s":      measuredWall * 100 / float64(n),
		"job_wall_ms_p50": median(walls),
		"job_wall_ms_p90": quantile(walls, 0.9),
		"net_mb_per_job":  mean(nets),
		"peak_rss_mb":     rss,
	})
	if len(missing) > 0 {
		return res, fmt.Errorf("%s: no value for %v", w.Name, missing)
	}
	fmt.Fprintf(progress, "%s seed %d: %d measured jobs in %.1fs, %d of %d failed\n",
		w.Name, seed, len(walls), measuredWall, res.Failed, res.Attempted)
	return res, nil
}
