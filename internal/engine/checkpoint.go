package engine

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/ser"
)

// snapshotCut captures this worker's state at the checkpoint cut point:
// superstep, halt vote, active bitmap, the algorithm's vertex state
// (Save closure) and every stateful channel's private state. The cut
// superstep's incoming frames are teed into the record as its exchange
// rounds run; Put happens after the last round, before the superstep's
// certifying reduce.
func (w *Worker) snapshotCut() *ckpt.Record {
	rec := &ckpt.Record{
		Superstep: w.superstep,
		Halt:      w.halt,
		Active:    append([]bool(nil), w.active...),
	}
	buf := ser.NewBuffer(4096)
	w.ckptSave(buf)
	rec.Algo = append([]byte(nil), buf.Bytes()...)
	rec.Channels = make([][]byte, len(w.channels))
	for ci, c := range w.channels {
		if sc, ok := c.(StatefulChannel); ok {
			buf.Reset()
			sc.SaveState(buf)
			rec.Channels[ci] = append([]byte(nil), buf.Bytes()...)
		}
	}
	return rec
}

// restoreCheckpoint loads this worker's record for hook.Restore, applies
// it, replays the cut superstep's exchange rounds locally, and re-crosses
// the superstep's certifying reduce so all restoring workers re-enter
// the main loop on one consistent barrier generation. It reports whether
// the reduce said the job is already finished (the cut superstep was the
// last one — possible when a worker died after the checkpoint but before
// its result shipped).
func (w *Worker) restoreCheckpoint(hook *ckpt.Hook, m int) (done bool, err error) {
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
	if len(rec.Active) != w.LocalCount() || len(rec.Channels) != len(w.channels) ||
		len(rec.Engine) != 0 || len(rec.Frames) != rec.Rounds*m {
		return false, fmt.Errorf("record does not match job shape (%d vertices, %d channels, %d frames/%d rounds)",
			len(rec.Active), len(rec.Channels), len(rec.Frames), rec.Rounds)
	}
	if err := w.applyAndReplay(rec, m); err != nil {
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
// round did) and then feeds the saved incoming frames through the normal
// per-channel deserialize path. The record crossed disk and process
// boundaries, so decode panics on hostile content surface as errors.
func (w *Worker) applyAndReplay(rec *ckpt.Record, m int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupt checkpoint state: %v", r)
		}
	}()
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
	for ci, c := range w.channels {
		if sc, ok := c.(StatefulChannel); ok {
			sc.RestoreState(ser.FromBytes(rec.Channels[ci]))
		} else if len(rec.Channels[ci]) != 0 {
			return fmt.Errorf("record carries state for stateless channel %d", ci)
		}
	}

	for ci := range w.chActive {
		w.chActive[ci] = true
	}
	scratch := ser.NewBuffer(4096)
	var sub ser.Buffer
	for r := 0; r < rec.Rounds; r++ {
		for ci, c := range w.channels {
			if !w.chActive[ci] {
				continue
			}
			for dst := 0; dst < m; dst++ {
				scratch.Reset()
				c.Serialize(dst, scratch)
			}
		}
		for src := 0; src < m; src++ {
			in := ser.FromBytes(rec.Frames[r*m+src])
			if derr := w.dispatchFrames(src, in, &sub, false); derr != nil {
				return derr
			}
		}
		for ci, c := range w.channels {
			w.chActive[ci] = c.Again()
		}
	}
	return nil
}
