package bsp

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/ckpt"
	"repro/internal/ser"
)

// cut captures this worker's state at the checkpoint cut point:
// superstep, halt vote, active bitmap, the algorithm's vertex state
// (Save closure) and the engine's own state. The cut superstep's
// incoming frames are teed into the record as its exchange rounds run;
// Put happens after the last round, before the superstep's certifying
// reduce.
func (c *Core) cut() *ckpt.Record {
	rec := &ckpt.Record{
		Superstep: c.superstep,
		Halt:      c.halt,
		Active:    append([]bool(nil), c.active...),
	}
	buf := ser.NewBuffer(4096)
	c.ckptSave(buf)
	rec.Algo = append([]byte(nil), buf.Bytes()...)
	c.prog.SaveState(rec)
	return rec
}

// restore loads this worker's record for hook.Restore, applies it,
// replays the cut superstep's exchange rounds locally, and re-crosses
// the superstep's certifying reduce so all restoring workers re-enter
// the main loop on one consistent barrier generation. It reports whether
// the reduce said the job is already finished (the cut superstep was the
// last one — possible when a worker died after the checkpoint but before
// its result shipped).
func (c *Core) restore(hook *ckpt.Hook) (done bool, err error) {
	data, err := hook.Store.Get(hook.Job, hook.Restore, c.id)
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
	if len(rec.Active) != c.LocalCount() || len(rec.Frames) != rec.Rounds*c.NumWorkers() {
		return false, fmt.Errorf("record does not match job shape (%d vertices, %d frames/%d rounds)",
			len(rec.Active), len(rec.Frames), rec.Rounds)
	}
	if err := c.applyAndReplay(rec); err != nil {
		return false, err
	}
	sum, ok := c.timedAllReduce(c.termVote())
	if !ok {
		return false, errAborted
	}
	return barrier.Terminated(sum), nil
}

// applyAndReplay installs the record's state and replays the cut
// superstep's exchange rounds fully locally: each round serializes into
// a discard buffer (draining the staged outboxes exactly as the live
// round did) and then feeds the saved incoming frames through the
// engine's normal decode path. The record crossed disk and process
// boundaries, so decode panics on hostile content surface as errors.
func (c *Core) applyAndReplay(rec *ckpt.Record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupt checkpoint state: %v", r)
		}
	}()
	c.superstep = rec.Superstep
	c.halt = rec.Halt
	copy(c.active, rec.Active)
	c.activeCount = 0
	for _, a := range c.active {
		if a {
			c.activeCount++
		}
	}
	c.ckptRestore(ser.FromBytes(rec.Algo))
	p := c.prog
	if err := p.RestoreState(rec); err != nil {
		return err
	}

	m := c.NumWorkers()
	scratch := ser.NewBuffer(4096)
	for c.round = 1; c.round <= rec.Rounds; c.round++ {
		for dst := 0; dst < m; dst++ {
			scratch.Reset()
			p.Serialize(dst, scratch)
		}
		for src := 0; src < m; src++ {
			if err := p.Deserialize(src, ser.FromBytes(rec.Frames[(c.round-1)*m+src])); err != nil {
				return err
			}
		}
		p.Again()
	}
	return nil
}
