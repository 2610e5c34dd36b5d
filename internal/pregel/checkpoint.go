package pregel

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/frag"
	"repro/internal/ser"
)

// snapshotCut captures this worker's state at the checkpoint cut point
// (post-compute, pre-exchange): superstep, halt vote, active bitmap, the
// algorithm's vertex state (Save closure) and the engine-private residue
// that the cut superstep's replay cannot rebuild — the per-vertex
// request stamps, which were written by Request calls during compute.
// Everything else (inboxes, asked lists, responses, aggregator gather)
// is rebuilt by replaying the saved frames. The record's Rounds is the
// configuration's fixed round count; frames are teed in as the rounds
// run, and Put happens after the last round, before the superstep's
// certifying reduce.
func (w *Worker[M, R, A]) snapshotCut(twoRounds bool) *ckpt.Record {
	rec := &ckpt.Record{
		Superstep: w.superstep,
		Halt:      w.halt,
		Active:    append([]bool(nil), w.active...),
		Rounds:    1,
	}
	if twoRounds {
		rec.Rounds = 2
	}
	buf := ser.NewBuffer(4096)
	w.ckptSave(buf)
	rec.Algo = append([]byte(nil), buf.Bytes()...)
	if w.cfg.Responder != nil {
		buf.Reset()
		for _, a := range w.reqOf {
			buf.WriteUvarint(uint64(a))
		}
		for _, e := range w.reqEpoch {
			buf.WriteVarint(int64(e))
		}
		rec.Engine = append([]byte(nil), buf.Bytes()...)
	}
	return rec
}

// restoreCheckpoint loads this worker's record for hook.Restore, applies
// it, replays the cut superstep's exchange rounds locally, and
// re-crosses the superstep's certifying reduce so all restoring workers
// re-enter the main loop on one consistent barrier generation. It
// reports whether the reduce said the job is already finished (the cut
// superstep was the last one — possible when a worker died after the
// checkpoint but before its result shipped).
func (w *Worker[M, R, A]) restoreCheckpoint(hook *ckpt.Hook, m int, twoRounds bool) (done bool, err error) {
	data, err := hook.Store.Get(hook.Job, hook.Restore, w.id)
	if err != nil {
		return false, err
	}
	rec, err := ckpt.Decode(data)
	if err != nil {
		return false, err
	}
	if rec.Superstep != hook.Restore {
		return false, fmt.Errorf("record is for superstep %d", rec.Superstep)
	}
	wantRounds := 1
	if twoRounds {
		wantRounds = 2
	}
	if len(rec.Active) != w.LocalCount() || len(rec.Channels) != 0 ||
		rec.Rounds != wantRounds || len(rec.Frames) != rec.Rounds*m {
		return false, fmt.Errorf("record does not match job shape (%d vertices, %d channels, %d frames/%d rounds)",
			len(rec.Active), len(rec.Channels), len(rec.Frames), rec.Rounds)
	}
	if err := w.applyAndReplay(rec, m, twoRounds); err != nil {
		return false, err
	}
	sum, ok := w.timedAllReduce(w.termVote())
	if !ok {
		return false, errAborted
	}
	return barrier.Terminated(sum), nil
}

// applyAndReplay installs the record's state and replays the cut
// superstep's exchange rounds fully locally: each round serializes into
// a discard buffer (draining the staged outboxes exactly as the live
// round did) and then feeds the saved incoming frames through the
// normal decode path. The record crossed disk and process boundaries,
// so decode panics on hostile content surface as errors.
func (w *Worker[M, R, A]) applyAndReplay(rec *ckpt.Record, m int, twoRounds bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupt checkpoint state: %v", r)
		}
	}()
	cfg := w.cfg
	w.superstep = rec.Superstep
	w.halt = rec.Halt
	copy(w.active, rec.Active)
	w.activeCount = 0
	for _, a := range w.active {
		if a {
			w.activeCount++
		}
	}
	w.ckptRestore(ser.FromBytes(rec.Algo))
	if cfg.Responder != nil {
		eng := ser.FromBytes(rec.Engine)
		for li := range w.reqOf {
			w.reqOf[li] = frag.Addr(eng.ReadUvarint())
		}
		for li := range w.reqEpoch {
			w.reqEpoch[li] = int32(eng.ReadVarint())
		}
		if eng.Remaining() != 0 {
			return fmt.Errorf("record engine blob has %d trailing bytes", eng.Remaining())
		}
	} else if len(rec.Engine) != 0 {
		return fmt.Errorf("record carries engine state but no Responder is configured")
	}
	if cfg.AggCombine != nil {
		// afterCompute ran before the live cut, so the gather side starts
		// the rounds zeroed.
		w.aggGathered = cfg.AggZero
		w.aggGathSet = false
	}

	scratch := ser.NewBuffer(4096)
	replayRound := func(serialize func(int, *ser.Buffer), decode func(int, *ser.Buffer), frames [][]byte) {
		for dst := 0; dst < m; dst++ {
			scratch.Reset()
			serialize(dst, scratch)
		}
		for src := 0; src < m; src++ {
			decode(src, ser.FromBytes(frames[src]))
		}
	}
	replayRound(w.serializeRound1, w.deserializeRound1, rec.Frames[:m])
	if twoRounds {
		replayRound(w.serializeRound2, w.deserializeRound2, rec.Frames[m:])
	}
	return nil
}
