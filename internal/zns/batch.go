package zns

import (
	"time"

	"raizn/internal/vclock"
)

// This file is the device side of the submission/completion ring
// (internal/ring): a caller hands the device a whole batch of write
// commands at once. The batch is validated and applied under ONE device
// lock acquisition, completion futures come from ONE slab allocation,
// and all completions are delivered by ONE walker goroutine instead of
// one timer event per command — the per-command fixed costs the ring
// amortizes. Per-command simulated timing (pipe occupancy, latencies) is
// identical to the equivalent sequence of individual writes. No layer of
// the stack submits through the ring; the canonical benchmark's ring
// probe, which pushes only writes, measures what a batch costs the host.

// CmdOp is the submission-queue entry type.
type CmdOp uint8

// CmdWrite, a sequential write of Data at Sector without flags, is the one
// batched command.
const CmdWrite CmdOp = 0

// Cmd is one submission-queue entry: Op, Sector and Data are its input;
// PrepareBatch fills the output fields:
//
//   - Fut: the completion future (pre-completed when Err is set).
//   - Err: the submit-time error, if the command was rejected.
//   - Done: the absolute virtual completion time (SQ-to-CQ latency is
//     Done minus the submit instant).
type Cmd struct {
	Op     CmdOp
	Sector int64
	Data   []byte

	Fut  *vclock.Future
	Err  error
	Done time.Duration
}

// Completion is one batched command's pending completion, produced by
// PrepareBatch and delivered by RunCompletions. The fields are opaque to
// callers; completions from several devices may be merged into one
// RunCompletions call (one walker goroutine reaps the whole CQ).
type Completion struct {
	dev   *Device
	fut   *vclock.Future
	epoch uint64
	pio   pendingIO
}

// At returns the completion's absolute virtual delivery time.
func (c *Completion) At() time.Duration { return c.pio.at }

// PrepareBatch validates and applies every command in cmds under a
// single device-lock acquisition, appends their pending completions to
// comps and returns it. State is applied at submit exactly as by Write;
// payloads, unlike Write's, are copied at submit too (a batch has no
// command records to carry a copy job), so a batch's buffers are the
// caller's at return; crash-point hooks fire per command, after the whole
// batch is applied, plus one "zns.ring.drain" crossing carrying the
// accepted-command count.
//
// The caller must deliver the returned completions with RunCompletions
// (they complete rejected commands' futures itself). Commands' simulated
// completion times are unchanged from individual submission; only the
// host-side fixed costs are amortized.
func (d *Device) PrepareBatch(cmds []Cmd, comps []Completion) []Completion {
	if len(cmds) == 0 {
		return comps
	}
	slab := d.clk.NewFutureSlab(len(cmds))
	var hooks []func()
	accepted := 0
	ss := d.cfg.SectorSize

	d.mu.Lock()
	epoch := d.epoch
	for i := range cmds {
		c := &cmds[i]
		c.Fut = &slab[i]
		var pio pendingIO
		var dst []byte
		var err error
		switch {
		case c.Op != CmdWrite:
			err = ErrOutOfRange
		case len(c.Data) == 0 || len(c.Data)%ss != 0:
			err = ErrUnaligned
		default:
			pio, dst, err = d.writeApplyLocked(nil, c.Sector, int64(len(c.Data)/ss), nil, 0)
		}
		if err != nil {
			c.Err = err
			continue
		}
		dmaCopy(dst, c.Data)
		accepted++
		c.Done = pio.at
		if hf := d.hookLocked("zns.cmd.write", d.ZoneOf(c.Sector), c.Sector); hf != nil {
			hooks = append(hooks, hf)
		}
		comps = append(comps, Completion{dev: d, fut: c.Fut, epoch: epoch, pio: pio})
	}
	var drain func()
	if accepted > 0 {
		drain = d.hookLocked("zns.ring.drain", -1, int64(accepted))
	}
	d.mu.Unlock()

	// Rejected commands complete synchronously, like Write's.
	for i := range cmds {
		if c := &cmds[i]; c.Err != nil {
			c.Fut.Complete(c.Err)
		}
	}
	for _, hf := range hooks {
		fire(hf)
	}
	fire(drain)
	return comps
}

// RunCompletions delivers a batch of prepared completions: one walker
// goroutine sleeps to each completion's virtual finish time (in time
// order), applies its persistence effects under the owning device's lock
// — unless that device lost power since submit, in which case the
// command completes with ErrPowerLoss and the effect is discarded — and
// completes its future, exactly mirroring per-command scheduling.
// onDone, if non-nil, runs on the walker after the last completion (for
// returning pooled storage).
func RunCompletions(clk *vclock.Clock, comps []Completion, onDone func()) {
	if len(comps) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	// Stable insertion sort by completion time: batches are small and
	// nearly sorted (each pipe hands out monotone times), and equal-time
	// completions must stay in submission order, matching the FIFO
	// tie-break of individually scheduled timer events.
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].pio.at < comps[j-1].pio.at; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	clk.Go(func() {
		for i := range comps {
			c := &comps[i]
			if wait := c.pio.at - clk.Now(); wait > 0 {
				clk.Sleep(wait)
			}
			d := c.dev
			d.mu.Lock()
			stale := d.epoch != c.epoch
			if !stale {
				d.applyEffectLocked(&c.pio)
			}
			d.mu.Unlock()
			err := c.pio.err
			if stale {
				err = ErrPowerLoss
			}
			c.fut.Complete(err)
		}
		if onDone != nil {
			onDone()
		}
	})
}
