package workerproc

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/ser"
)

// A worker whose control channel ends — which is all it sees of a
// coordinator that was SIGKILLed, the kernel closing the pipe — exits on
// its own: nobody calls Close or kills it here.
func TestWorkerExitsWhenControlChannelEnds(t *testing.T) {
	p, err := NewPool(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	mb, err := p.spawn()
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(mb.pid, 0); err != nil {
		t.Fatalf("worker %d not running: %v", mb.pid, err)
	}
	mb.ctl.Close()
	select {
	case <-mb.exited:
	case <-time.After(5 * time.Second):
		mb.kill()
		t.Fatal("worker survived the end of its control channel")
	}
	if mb.exitErr != nil {
		t.Errorf("worker exit: %v", mb.exitErr)
	}
	if err := syscall.Kill(mb.pid, 0); err != syscall.ESRCH {
		t.Errorf("worker %d still there: %v", mb.pid, err)
	}
	if pids := p.Processes(); len(pids) != 0 {
		t.Errorf("pool still tracks %v", pids)
	}
}

// A pool directory whose process is gone — a daemon that was SIGKILLed
// never removes its view exports — is swept by the next pool; those of
// live processes stay.
func TestNewPoolSweepsDeadPoolsDirs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	dead := exec.Command(os.Args[0]) // a worker with no control channel: exits at once
	dead.Env = append(os.Environ(), ChildEnv+"=1")
	if err := dead.Run(); err != nil {
		t.Fatal(err)
	}
	mk := func(pid int) string {
		dir := filepath.Join(tmp, dirPrefix+strconv.Itoa(pid)+"-1")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "view-1.bin"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	stale, parents, own := mk(dead.Process.Pid), mk(os.Getppid()), mk(os.Getpid())
	p, err := NewPool(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("directory of dead process %d still there (stat: %v)", dead.Process.Pid, err)
	}
	for _, dir := range []string{parents, own, p.Dir()} {
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("directory of a live process was swept: %v", err)
		}
	}
	if filepath.Dir(p.Dir()) != tmp {
		t.Errorf("pool directory %s is not in %s", p.Dir(), tmp)
	}
}

// The worker's view cache follows the export files: a view is loaded on
// first sight, served from memory after, and dropped at the first
// dispatch after its export was removed.
func TestWorkerViewCacheFollowsExports(t *testing.T) {
	g := graph.Undirectify(graph.Chain(16))
	write := func(name string) string {
		part, err := partition.ByName(partition.PlacementHash, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := graph.WriteSnapshotFile(path, g, []graph.Placement{
			{Name: partition.PlacementHash, Workers: 2, Owner: part.Owners()}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.bin"), write("b.bin")
	w := &worker{log: slog.New(slog.DiscardHandler), exports: make(map[string]*export)}
	load := func(path string) (v *view, cached bool) {
		t.Helper()
		_, v, cached, err := w.view(&descriptor{snapshot: path, placement: partition.PlacementHash, m: 2})
		if err != nil {
			t.Fatal(err)
		}
		return v, cached
	}
	first, cached := load(a)
	if cached {
		t.Fatal("first load reported as cached")
	}
	if again, cached := load(a); !cached || again != first {
		t.Fatal("second load of the same export was not served from the cache")
	}
	if _, _, _, err := w.view(&descriptor{snapshot: a, placement: partition.PlacementHash, m: 3}); err == nil {
		t.Fatal("a job expecting another worker count was handed the cached view")
	}
	os.Remove(a)
	load(b)
	if _, ok := w.exports[a]; ok || len(w.exports) != 1 {
		t.Fatalf("cache after the export was removed: %d entries", len(w.exports))
	}
	if _, _, _, err := w.view(&descriptor{snapshot: a, placement: partition.PlacementHash, m: 2}); err == nil {
		t.Fatal("removed export still loads")
	}
}

func testDescriptor() descriptor {
	return descriptor{
		seq: 7, network: "unix", addr: "/tmp/graphw1/hub-3.sock",
		snapshot: "/tmp/graphw1/view-1.bin", placement: partition.PlacementGreedy,
		lo: 2, hi: 3, m: 4,
		algorithm: "pagerank", engine: algorithms.EnginePregel, variant: "scatter",
		params:        algorithms.Params{Iterations: 12, Source: 5},
		maxSupersteps: 100, trace: true, flows: true,
		ckptDir: "/tmp/graphw1/ckpt-9", ckptJob: "j-000001", ckptInterval: 2, restore: 4,
		fault: &FaultSpec{Kind: "kill", Worker: 2, Superstep: 5},
	}
}

// The job descriptor crosses a process boundary: arbitrary bytes must
// decode to an error or to a descriptor this binary can run — never
// panic, never allocate from a declared length — and what is accepted
// must survive a round trip unchanged.
func FuzzJobDescriptor(f *testing.F) {
	full := testDescriptor()
	f.Add(full.encode())
	minimal := descriptor{network: "tcp", addr: "127.0.0.1:9",
		m: 1, algorithm: "wcc", engine: algorithms.EngineChannel}
	f.Add(minimal.encode())
	for _, mutate := range []func(*descriptor){
		func(d *descriptor) { d.lo, d.hi = 3, 2 },                                  // inverted range
		func(d *descriptor) { d.hi = d.m },                                         // range past the party
		func(d *descriptor) { d.m = maxWorkers + 1 },                               // more workers than the wire can address
		func(d *descriptor) { d.algorithm = "nope" },                               // unknown algorithm
		func(d *descriptor) { d.engine = "mapreduce" },                             // unknown engine
		func(d *descriptor) { d.variant = "nope" },                                 // unknown variant
		func(d *descriptor) { d.maxSupersteps = 1 << 40 },                          // superstep cap past int32
		func(d *descriptor) { d.fault = &FaultSpec{Kind: "meteor", Superstep: 1} }, // unknown fault
		func(d *descriptor) { d.network = "udp" },
	} {
		bad := testDescriptor()
		mutate(&bad)
		if _, err := decodeDescriptor(bad.encode()); err == nil {
			f.Fatalf("hostile descriptor accepted: %+v", bad)
		}
		f.Add(bad.encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // 2^63 as the first varint
	f.Add(append(full.encode()[:20], 0xff, 0xff, 0xff, 0xff, 0x0f))           // string length far past the end
	trailing := append(full.encode(), 0)
	if _, err := decodeDescriptor(trailing); err == nil {
		f.Fatal("descriptor with a trailing byte accepted")
	}
	f.Add(trailing)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDescriptor(data)
		if err != nil {
			return
		}
		if d.lo > d.hi || d.hi >= d.m || d.m > maxWorkers {
			t.Fatalf("accepted worker range %d-%d of %d", d.lo, d.hi, d.m)
		}
		spec, ok := algorithms.Lookup(d.algorithm)
		if !ok || spec.CheckVariant(d.engine, d.variant) != nil {
			t.Fatalf("accepted %s/%s/%s, which the registry cannot run", d.algorithm, d.engine, d.variant)
		}
		again, err := decodeDescriptor(d.encode())
		if err != nil {
			t.Fatalf("re-encoded descriptor rejected: %v", err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("descriptor round trip changed it:\n%+v\n%+v", d, again)
		}
	})
}

// A result blob crosses a process boundary too. FuzzPartial takes one
// through decodePartial and mergePartials as the coordinator does, for a
// 2-worker job of 6 vertices: a hostile blob must come out as an error,
// never a panic or an allocation sized by a count it claims. What is
// accepted re-encodes to the same bytes: exactly, for the canonical
// seeds; for any other input, its re-encoding — varints and flow cells
// in their one canonical form — must be accepted and re-encode to
// itself.
func FuzzPartial(f *testing.F) {
	part := partition.MustHash(6, 2)
	reencode := func(blob []byte) ([]byte, error) {
		p, err := decodePartial(blob)
		if err != nil {
			return nil, err
		}
		flows := obs.NewFlowAccum(part.NumWorkers())
		res, steps, err := mergePartials(part, []partial{p}, flows)
		if err != nil {
			return nil, err
		}
		res.Metrics.Supersteps = steps
		buf := ser.NewBuffer(256)
		encodePartial(buf, part, p.lo, p.hi, res, flows.Matrix(), nil)
		return buf.Bytes(), nil
	}
	flows := &obs.FlowMatrix{Plane: "hub", Workers: 2,
		Flows:  []obs.FlowStat{{Src: 0, Dst: 1, Bytes: 40, Frames: 2, Rounds: 2, MaxFrame: 30}},
		Relays: []obs.RelayStat{{Lo: 0, Hi: 1, Bytes: 40, Frames: 2, ResidencyNS: 900}}}
	encode := func(res *algorithms.Result, runErr error) []byte {
		buf := ser.NewBuffer(256)
		encodePartial(buf, part, 0, 1, res, flows, runErr)
		return buf.Bytes()
	}
	steps := algorithms.Metrics{Supersteps: 7}
	for _, res := range []*algorithms.Result{
		{Labels: []graph.VertexID{5, 4, 3, 2, 1, 0}, Metrics: steps},
		{Ranks: []float64{0.5, 0, -1, math.Inf(1), 1e-300, 3}, Metrics: steps},
		{Dists: []int64{0, -1, 3, math.MaxInt64, 2, 1}, Metrics: steps},
		{MSF: &algorithms.MSFResult{Comp: []graph.VertexID{0, 0, 2, 2, 4, 4}, Weight: 9,
			Edges: []graph.Edge{{Src: 0, Dst: 1, Weight: 5}, {Src: 2, Dst: 3, Weight: 4}}}, Metrics: steps},
	} {
		blob := encode(res, nil)
		if again, err := reencode(blob); err != nil || !bytes.Equal(again, blob) {
			f.Fatalf("%s partial does not round-trip: %v", res.Kind(), err)
		}
		f.Add(blob)
	}
	f.Add(encode(nil, errors.New("worker 1: superstep cap")))
	// an MSF partial claiming 2^40 edges, with bytes for one
	huge := ser.NewBuffer(64)
	huge.WriteUvarint(0)
	huge.WriteUvarint(1)
	huge.WriteString("")
	huge.WriteUvarint(3)
	huge.WriteUint8(kindMSF)
	for v := 0; v < part.NumVertices(); v++ {
		huge.WriteUvarint(0)
	}
	huge.WriteVarint(5)
	huge.WriteUvarint(1 << 40)
	huge.WriteUvarint(0)
	huge.WriteUvarint(1)
	huge.WriteVarint(5)
	if _, err := reencode(huge.Bytes()); err == nil {
		f.Fatal("an MSF partial claiming 2^40 edges was accepted")
	}
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, blob []byte) {
		once, err := reencode(blob)
		if err != nil {
			return
		}
		twice, err := reencode(once)
		if err != nil {
			t.Fatalf("re-encoded partial rejected: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", once, twice)
		}
	})
}

// Control frames are length-prefixed; a hostile length is refused before
// it drives an allocation, and a stream that ends mid-frame is not a
// clean end of input.
func TestControlFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	if p, err := readFrame(&buf); err != nil || string(p) != "abc" {
		t.Fatalf("round trip: %q, %v", p, err)
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream between frames: %v, want io.EOF", err)
	}
	if _, err := readFrame(bytes.NewReader(wire[:5])); err != io.ErrUnexpectedEOF {
		t.Fatalf("stream cut inside a frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f})); err == nil {
		t.Fatal("2 GiB control frame accepted")
	}
	a := ack{seq: 9, cached: true, load: 3 * time.Millisecond, err: "ship result: broken pipe"}
	if got, err := decodeAck(a.encode()); err != nil || got != a {
		t.Fatalf("ack round trip: %+v, %v", got, err)
	}
	if _, err := decodeAck([]byte{0x80}); err == nil {
		t.Fatal("truncated ack accepted")
	}
}

// JobSpec.DataPlane is a deprecated alias: every name it ever took runs
// the hub, and a name it never had still fails the job up front.
func TestJobSpecDataPlaneAliases(t *testing.T) {
	spec := JobSpec{Part: partition.MustHash(8, 2), Algorithm: "wcc"}
	for _, plane := range []string{"", "hub", "p2p", "p2p-adaptive"} {
		spec.DataPlane = plane
		if _, err := spec.descriptor(); err != nil {
			t.Errorf("DataPlane %q: %v", plane, err)
		}
	}
	spec.DataPlane = "mesh"
	if _, err := spec.descriptor(); err == nil {
		t.Error(`DataPlane "mesh" accepted`)
	}
}
