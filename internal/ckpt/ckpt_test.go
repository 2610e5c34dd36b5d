package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ser"
)

func TestDirStoreRoundTrip(t *testing.T) {
	d := NewDir(t.TempDir())
	data := []byte("worker three state")
	if err := d.Put("job", 4, 3, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("job", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %q, want %q", got, data)
	}
	// overwrite wins
	if err := d.Put("job", 4, 3, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Get("job", 4, 3); string(got) != "newer" {
		t.Fatalf("after overwrite: %q", got)
	}
	if _, err := d.Get("job", 4, 0); err == nil {
		t.Fatal("expected error for missing record")
	}
	if _, err := d.Get("other", 4, 3); err == nil {
		t.Fatal("expected error for missing job")
	}
}

func TestDirStoreRejectsCorruption(t *testing.T) {
	root := t.TempDir()
	d := NewDir(root)
	if err := d.Put("job", 1, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "job", "1", "worker-0.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip one payload byte: the checksum must catch it
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("job", 1, 0); err == nil {
		t.Fatal("expected checksum error")
	}
	// truncated below the header
	if err := os.WriteFile(path, raw[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("job", 1, 0); err == nil {
		t.Fatal("expected header error")
	}
}

func TestLatestComplete(t *testing.T) {
	root := t.TempDir()
	d := NewDir(root)
	if s, err := d.LatestComplete("job", 3); err != nil || s != 0 {
		t.Fatalf("empty store: %d, %v", s, err)
	}
	for step := 1; step <= 2; step++ {
		for w := 0; w < 3; w++ {
			if err := d.Put("job", step, w, []byte{byte(step), byte(w)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// step 3 is torn: only two of three workers made it
	d.Put("job", 3, 0, []byte{3, 0})
	d.Put("job", 3, 1, []byte{3, 1})
	if s, err := d.LatestComplete("job", 3); err != nil || s != 2 {
		t.Fatalf("torn step skipped: got %d, %v, want 2", s, err)
	}
	// corrupt one record of step 2: fall back to step 1
	path := filepath.Join(root, "job", "2", "worker-1.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := d.LatestComplete("job", 3); err != nil || s != 1 {
		t.Fatalf("corrupt step skipped: got %d, %v, want 1", s, err)
	}
}

func TestDirPruneBelow(t *testing.T) {
	d := NewDir(t.TempDir())
	for step := 1; step <= 5; step++ {
		for w := 0; w < 2; w++ {
			if err := d.Put("job", step, w, []byte{byte(step), byte(w)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Put("other", 1, 0, []byte{9}) // other jobs are untouched
	if err := d.PruneBelow("job", 4); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		if _, err := d.Get("job", step, 0); err == nil {
			t.Fatalf("superstep %d survived prune", step)
		}
	}
	for step := 4; step <= 5; step++ {
		for w := 0; w < 2; w++ {
			if _, err := d.Get("job", step, w); err != nil {
				t.Fatalf("superstep %d pruned wrongly: %v", step, err)
			}
		}
	}
	if s, err := d.LatestComplete("job", 2); err != nil || s != 5 {
		t.Fatalf("after prune: latest %d, %v, want 5", s, err)
	}
	if _, err := d.Get("other", 1, 0); err != nil {
		t.Fatalf("other job pruned: %v", err)
	}
	if err := d.PruneBelow("nosuchjob", 10); err != nil {
		t.Fatalf("missing job must be a no-op: %v", err)
	}

	// AfterSave drives the same path through the hook: saving superstep
	// s discards everything below s-Interval, keeping the previous
	// complete cut, and a store-less or save-less hook stays inert.
	h := &Hook{Store: d, Job: "job", Interval: 1}
	h.AfterSave(6) // no record for 6 needed: pruning is independent
	if _, err := d.Get("job", 4, 0); err == nil {
		t.Fatal("AfterSave(6) must prune below 5")
	}
	if _, err := d.Get("job", 5, 0); err != nil {
		t.Fatalf("AfterSave(6) must keep superstep 5: %v", err)
	}
	var nilHook *Hook
	nilHook.AfterSave(3) // must not panic
	(&Hook{Store: d, Job: "job"}).AfterSave(100)
	if _, err := d.Get("job", 5, 0); err != nil {
		t.Fatal("interval-less hook must never prune")
	}
}

func TestHookGating(t *testing.T) {
	var h *Hook
	if h.Active() || h.ShouldSave(1) {
		t.Fatal("nil hook must be inert")
	}
	h.FireProbe(0, 1) // must not panic
	h = &Hook{}
	if h.Active() || h.ShouldSave(2) {
		t.Fatal("store-less hook must not save")
	}
	fired := 0
	h = &Hook{Store: NewDir(t.TempDir()), Interval: 2, Probe: func(w, s int) { fired++ }}
	if !h.Active() {
		t.Fatal("expected active")
	}
	if h.ShouldSave(3) || !h.ShouldSave(4) {
		t.Fatal("interval gating wrong")
	}
	h.FireProbe(0, 1)
	if fired != 1 {
		t.Fatalf("probe fired %d times", fired)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &Record{
		Superstep: 7,
		Halt:      true,
		Active:    []bool{true, false, true, true, false, false, true, false, true},
		Algo:      []byte("algo state"),
		Engine:    []byte{1, 2, 3},
		Channels:  [][]byte{[]byte("ch0"), nil, []byte("ch2")},
		Out:       [][]byte{[]byte("to0"), nil, []byte("to2")},
	}
	buf := ser.NewBuffer(256)
	rec.Encode(buf)
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Superstep != rec.Superstep || got.Halt != rec.Halt ||
		!reflect.DeepEqual(got.Active, rec.Active) ||
		string(got.Algo) != string(rec.Algo) || string(got.Engine) != string(rec.Engine) ||
		len(got.Channels) != 3 || len(got.Out) != 3 {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, rec)
	}
	if string(got.Out[2]) != "to2" || len(got.Out[1]) != 0 {
		t.Fatalf("outgoing buffer order broken: %q", got.Out)
	}
}

func TestRecordDecodeRejectsHostileInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {0xde, 0xad, 0xbe, 0xef, 0x01},
	}
	// huge claimed bitmap: magic + superstep 1 + halt + uvarint(2^40)
	huge := ser.NewBuffer(16)
	huge.WriteUint32(recordMagic)
	huge.WriteUvarint(1)
	huge.WriteBool(false)
	huge.WriteUvarint(1 << 40)
	cases["huge bitmap"] = huge.Bytes()
	// an outgoing-buffer count beyond the bytes left: the encoding of
	// a record without buffers, its zero count replaced by 2^40
	none := ser.NewBuffer(64)
	(&Record{Superstep: 1}).Encode(none)
	cases["huge out count"] = binary.AppendUvarint(slices.Clip(none.Bytes()[:none.Len()-1]), 1<<40)
	// trailing garbage after a valid record
	ok := ser.NewBuffer(64)
	(&Record{Superstep: 1, Out: [][]byte{{1}, {2}}}).Encode(ok)
	cases["trailing bytes"] = append(append([]byte(nil), ok.Bytes()...), 0x00)
	// a record under the previous format's magic
	old := append([]byte("CKP1"), ok.Bytes()[4:]...)
	cases["CKP1 record"] = old
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// a bitmap of 2^63-1 vertices: its byte count must not wrap past
	// the bound and leave the allocation to the runtime
	maxBitmap := binary.AppendUvarint(slices.Clip(huge.Bytes()[:6]), math.MaxInt64)
	if _, err := Decode(maxBitmap); err == nil || !strings.Contains(err.Error(), "ckpt: active bitmap claims 9223372036854775807 vertices, 0 bytes remain") {
		t.Errorf("a bitmap of 2^63-1 vertices: got %v", err)
	}
	if _, err := Decode(old); err == nil || !strings.Contains(err.Error(), `"CKP1"`) {
		t.Errorf("a CKP1 record must be refused by name, got %v", err)
	}
}

// FuzzRecordDecode asserts the same contract as the ser/snapshot
// fuzzers: hostile input must error (never hang, OOM or crash), and any
// accepted input must re-encode to a record that decodes identically.
func FuzzRecordDecode(f *testing.F) {
	seed := ser.NewBuffer(256)
	(&Record{
		Superstep: 3,
		Active:    []bool{true, false, true},
		Algo:      []byte("s"),
		Channels:  [][]byte{{9}},
		Out:       [][]byte{{1}, {2}},
	}).Encode(seed)
	f.Add(seed.Bytes())
	empty := ser.NewBuffer(16)
	(&Record{Superstep: 1}).Encode(empty)
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		buf := ser.NewBuffer(len(data) + 16)
		rec.Encode(buf)
		again, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("accepted record failed to round-trip: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("round-trip mismatch:\n%+v\n%+v", rec, again)
		}
	})
}

// AppendSlice appends what SaveSlice wrote and checks the claimed length
// against the bytes left before it grows anything.
func TestAppendSlice(t *testing.T) {
	codec := ser.VarintCodec[int32]{}
	buf := ser.NewBuffer(16)
	SaveSlice(buf, codec, []int32{-1, 300, 7})
	SaveSlice(buf, codec, nil)
	if got := AppendSlice(buf, codec, []int32{5}); !slices.Equal(got, []int32{5, -1, 300, 7}) {
		t.Errorf("appended %v", got)
	}
	if got := AppendSlice(buf, codec, nil); got != nil || buf.Remaining() != 0 {
		t.Errorf("empty slice came back as %v with %d bytes left", got, buf.Remaining())
	}
	hostile := ser.NewBuffer(16)
	hostile.WriteUvarint(1 << 40)
	hostile.WriteVarint(1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "1099511627776 entries claimed, 1 bytes remain") {
			t.Errorf("hostile length: recovered %v", r)
		}
	}()
	AppendSlice(hostile, codec, nil)
}
