package workerproc

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Pool keeps graphworker processes alive across jobs. A job borrows a
// party — one process per worker range — for its whole run, recovery
// attempts included, and hands it back warm: the next job on the same
// view finds graph, partition and fragments already resident in every
// member. Parties are created on demand, one per concurrently running
// job, and live until the pool closes; a member that dies is replaced
// in its slot the next time the party is used.
//
// A pool belongs to whoever made it: a daemon's job manager keeps one
// for its lifetime, Run makes one around a single job.
type Pool struct {
	bin string
	dir string

	seq atomic.Uint64 // dispatches and hub sockets, both named by it

	viewHits   atomic.Int64
	viewMisses atomic.Int64

	mu      sync.Mutex
	idle    []*party
	members map[*member]struct{} // every process not yet reaped
	closed  bool
}

// closeGrace is how long Close waits for workers to exit on the EOF of
// their control channel before killing them.
const closeGrace = time.Second

// dirPrefix starts the name of every pool directory; the pid of the
// process that made it follows, so a later pool can tell whose it was.
const dirPrefix = "graphw-"

// NewPool returns an empty pool of graphworkers running bin; the first
// job starts the first processes. It also removes the directories of
// pools whose process died without closing them (a SIGKILLed daemon:
// its workers exit on their own, its view exports would stay forever).
func NewPool(bin string) (*Pool, error) {
	sweepStaleDirs()
	dir, err := os.MkdirTemp("", dirPrefix+strconv.Itoa(os.Getpid())+"-")
	if err != nil {
		return nil, fmt.Errorf("workerproc: %w", err)
	}
	return &Pool{bin: bin, dir: dir, members: make(map[*member]struct{})}, nil
}

// sweepStaleDirs removes the pool directories in the temp dir whose
// owning pid no longer exists. A pid that was reused reads as alive and
// its directory stays: that errs on the side of never touching a live
// pool's files.
func sweepStaleDirs() {
	dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), dirPrefix+"*"))
	for _, dir := range dirs {
		owner, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(dir), dirPrefix), "-")
		pid, err := strconv.Atoi(owner)
		if err != nil || pid <= 0 || pid == os.Getpid() {
			continue
		}
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(dir)
		}
	}
}

// Dir is a directory that lives exactly as long as the pool: the pool
// keeps its hub sockets there, and the job manager the view exports its
// workers load.
func (p *Pool) Dir() string { return p.dir }

// Close ends the pool once no job runs on it: it closes every worker's
// control channel — a worker exits on that EOF — kills what has not
// exited after closeGrace, reaps everything, and removes Dir. (A party
// still out on a job is stopped the moment the job returns it.)
// Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, pt := range idle {
		pt.stop()
	}
	os.RemoveAll(p.dir)
}

// PoolStats is a point-in-time reading of a pool.
type PoolStats struct {
	// ViewHits and ViewMisses count, per process per job, whether the
	// job's view was already resident in the worker.
	ViewHits, ViewMisses int64
	// Processes is the number of live worker processes and RSSBytes the
	// sum of their resident set sizes.
	Processes int
	RSSBytes  int64
}

// Stats reads the pool's counters and its workers' memory.
func (p *Pool) Stats() PoolStats {
	pids := p.Processes()
	st := PoolStats{ViewHits: p.viewHits.Load(), ViewMisses: p.viewMisses.Load(), Processes: len(pids)}
	for _, pid := range pids {
		st.RSSBytes += rssBytes(pid)
	}
	return st
}

// Processes lists the pids of every worker the pool started and has not
// reaped yet. Empty after Close returned.
func (p *Pool) Processes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	pids := make([]int, 0, len(p.members))
	for mb := range p.members {
		pids = append(pids, mb.pid)
	}
	return pids
}

// rssBytes reads a process's VmRSS from /proc (0 where there is none).
func rssBytes(pid int) int64 {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(status, []byte("VmRSS:"))
	if !ok {
		return 0
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	kb, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(line), []byte("kB")))), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}

// party is the set of processes one job runs on, one slot per worker
// range. A slot is nil until first used and after its process died.
type party struct {
	members []*member
}

// acquire hands out an idle party of n slots, or an empty one to fill.
func (p *Pool) acquire(n int) *party {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pt := range p.idle {
		if len(pt.members) == n {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return pt
		}
	}
	return &party{members: make([]*member, n)}
}

func (p *Pool) release(pt *party) {
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.idle = append(p.idle, pt)
	}
	p.mu.Unlock()
	if closed {
		pt.stop()
	}
}

// ensure fills every empty or dead slot with a fresh process.
func (pt *party) ensure(p *Pool) error {
	for i, mb := range pt.members {
		if mb != nil && !mb.dead() {
			continue
		}
		mb, err := p.spawn(cpuShare(len(pt.members)))
		if err != nil {
			return fmt.Errorf("workerproc: spawn graphworker %d: %w", i, err)
		}
		pt.members[i] = mb
	}
	return nil
}

func (pt *party) pids() []int {
	pids := make([]int, len(pt.members))
	for i, mb := range pt.members {
		pids[i] = mb.pid
	}
	return pids
}

// stop ends the party's processes: EOF first, a kill for whatever is
// still there after closeGrace, and it returns once all are reaped.
func (pt *party) stop() {
	var live []*member
	for _, mb := range pt.members {
		if mb != nil {
			mb.ctl.Close()
			live = append(live, mb)
		}
	}
	grace := time.After(closeGrace)
	for _, mb := range live {
		select {
		case <-mb.exited:
		case <-grace:
			for _, straggler := range live {
				straggler.kill()
			}
			grace = nil // spent: from here on only the exits are awaited
			<-mb.exited
		}
	}
}

// member is one warm graphworker process.
type member struct {
	cmd    *exec.Cmd
	pid    int
	ctl    io.WriteCloser // descriptors down; closing it makes the worker exit
	stderr *stderrSink

	// acks carries the worker's answer to each descriptor. One job is
	// outstanding per member at most, so one slot never blocks the reader.
	acks chan ack
	// exited is closed once the process is reaped; exitErr is valid then.
	exited  chan struct{}
	exitErr error
}

func (mb *member) dead() bool {
	select {
	case <-mb.exited:
		return true
	default:
		return false
	}
}

func (mb *member) kill() { _ = mb.cmd.Process.Kill() } // fails only if already reaped

// cpuShare is the GOMAXPROCS of each process of an n-process party.
// The party's processes compute at the same time, so each gets its
// share of the host's cores rather than all of them: on two cores, two
// workers that each keep two threads busy only preempt each other.
func cpuShare(n int) int { return max(1, runtime.NumCPU()/n) }

// spawn starts one worker, scheduling on cpus cores unless the pool's
// own environment sets GOMAXPROCS, and the goroutine that owns its
// lifetime: it forwards acks until the process closes its side, reaps
// it, and only then marks the member exited.
func (p *Pool) spawn(cpus int) (*member, error) {
	cmd := exec.Command(p.bin)
	cmd.Env = append(os.Environ(), ChildEnv+"=1")
	if os.Getenv("GOMAXPROCS") == "" {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(cpus))
	}
	ctl, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		ctl.Close()
		return nil, err
	}
	sink := &stderrSink{log: slog.New(slog.DiscardHandler)}
	cmd.Stderr = sink
	if err := cmd.Start(); err != nil {
		return nil, err // Start closed both pipes
	}
	mb := &member{cmd: cmd, pid: cmd.Process.Pid, ctl: ctl, stderr: sink,
		acks: make(chan ack, 1), exited: make(chan struct{})}
	p.mu.Lock()
	p.members[mb] = struct{}{}
	p.mu.Unlock()
	go func() {
		for {
			frame, err := readFrame(out)
			if err != nil {
				break // EOF: the process exited or is about to
			}
			a, err := decodeAck(frame)
			if err != nil {
				sink.logger().Error("graphworker sent a corrupt ack; killing it", "pid", mb.pid, "err", err)
				mb.kill()
				break
			}
			select {
			case mb.acks <- a:
			default: // an ack nobody asked for
			}
		}
		mb.exitErr = cmd.Wait()
		sink.flush()
		p.mu.Lock()
		delete(p.members, mb)
		p.mu.Unlock()
		close(mb.exited)
	}()
	return mb, nil
}

// stderrSink receives one worker's stderr: every complete line is
// re-emitted on the current job's logger, tagged with the worker range,
// so a multi-process job has one interleaved, attributable log stream;
// the first few KiB since the job began are also retained, as the error
// detail should the process die.
type stderrSink struct {
	mu   sync.Mutex
	log  *slog.Logger
	head bytes.Buffer
	line bytes.Buffer
}

const stderrHeadCap = 8 << 10

// begin points the sink at a new job's logger and forgets the previous
// job's retained output.
func (s *stderrSink) begin(log *slog.Logger) {
	s.mu.Lock()
	s.log = log
	s.head.Reset()
	s.mu.Unlock()
}

func (s *stderrSink) logger() *slog.Logger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

func (s *stderrSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if room := stderrHeadCap - s.head.Len(); room > 0 {
		s.head.Write(p[:min(room, len(p))])
	}
	s.line.Write(p)
	for {
		b := s.line.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return len(p), nil
		}
		s.log.Info("graphworker stderr", "line", string(bytes.TrimRight(b[:i], "\r")))
		s.line.Next(i + 1)
	}
}

// flush emits a trailing unterminated line after the process exits.
func (s *stderrSink) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.line.Len() > 0 {
		s.log.Info("graphworker stderr", "line", s.line.String())
		s.line.Reset()
	}
}

func (s *stderrSink) retained() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(bytes.TrimSpace(s.head.Bytes()))
}
