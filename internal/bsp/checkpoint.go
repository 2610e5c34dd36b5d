package bsp

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/ser"
)

// save cuts this worker's record after round 1's serialize — superstep,
// halt vote, active bitmap, the algorithm's vertex state (Save closure),
// the engine's own state and the buffers the round is about to flush —
// and stores it.
func (c *Core) save(ck *ckpt.Hook) error {
	rec := &ckpt.Record{
		Superstep: c.superstep,
		Halt:      c.halt,
		Active:    c.active,
		Out:       make([][]byte, c.NumWorkers()),
	}
	algo := ser.NewBuffer(4096)
	c.ckptSave(algo)
	rec.Algo = algo.Bytes()
	c.prog.SaveState(rec)
	for dst := range rec.Out {
		rec.Out[dst] = c.ep.Out(dst).Bytes()
	}
	buf := ser.NewBuffer(4096)
	rec.Encode(buf)
	return ck.Store.Put(ck.Job, c.superstep, c.id, buf.Bytes())
}

// restore loads this worker's record for hook.Restore, applies it and
// writes the saved buffers into the endpoint's outgoing buffers: the
// worker then stands where the cut found it, with round 1 serialized,
// and the caller resumes the superstep at that round's flush. The
// record crossed disk and process boundaries, so panics of the restore
// closures on hostile content surface as errors.
func (c *Core) restore(hook *ckpt.Hook) error {
	data, err := hook.Store.Get(hook.Job, hook.Restore, c.id)
	if err != nil {
		return err
	}
	rec, err := ckpt.Decode(data)
	if err != nil {
		return err
	}
	if rec.Superstep != hook.Restore {
		return fmt.Errorf("record is for superstep %d", rec.Superstep)
	}
	if len(rec.Active) != c.LocalCount() || len(rec.Out) != c.NumWorkers() {
		return fmt.Errorf("record does not match job shape (%d vertices, %d outgoing buffers)",
			len(rec.Active), len(rec.Out))
	}
	c.superstep = rec.Superstep
	c.halt = rec.Halt
	copy(c.active, rec.Active)
	c.activeCount = 0
	for _, a := range c.active {
		if a {
			c.activeCount++
		}
	}
	if perr := ser.Decode(func() {
		c.ckptRestore(ser.FromBytes(rec.Algo))
		err = c.prog.RestoreState(rec)
	}); perr != nil {
		return fmt.Errorf("corrupt checkpoint state: %v", perr)
	}
	if err != nil {
		return err
	}
	c.round = 1
	for dst, out := range rec.Out {
		copy(c.ep.Out(dst).Extend(len(out)), out)
	}
	return nil
}
