package zns

import (
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// This file is the device side of the submission/completion ring
// (internal/ring): a caller hands the device a whole batch of typed
// commands at once. The batch is validated and applied under ONE device
// lock acquisition, completion futures come from ONE slab allocation,
// and all completions are delivered by ONE walker goroutine instead of
// one timer goroutine per command — the per-command fixed costs the ring
// amortizes. Per-command simulated timing (pipe occupancy, latencies) is
// identical to the equivalent sequence of individual submissions. No
// layer of the stack submits through the ring; the canonical benchmark's
// ring probe measures what a batch costs the host.

// CmdOp is the submission-queue entry type.
type CmdOp uint8

const (
	CmdWrite  CmdOp = iota // sequential write of Data at Sector
	CmdWritev              // gathered write of Segs at Sector
	CmdRead                // read into Data from Sector
	CmdAppend              // zone append of Data to Zone (Sector is output)
	CmdFlush               // flush the volatile write cache
	CmdReset               // reset Zone
	CmdFinish              // finish Zone
)

// Cmd is one submission-queue entry. Input fields depend on Op (see the
// CmdOp constants); PrepareBatch fills the output fields:
//
//   - Fut: the completion future (pre-completed when Err is set).
//   - Err: the submit-time error, if the command was rejected.
//   - Done: the absolute virtual completion time (SQ-to-CQ latency is
//     Done minus the submit instant).
//   - Sector (CmdAppend): the device-assigned write position.
type Cmd struct {
	Op     CmdOp
	Sector int64
	Zone   int
	Data   []byte
	Segs   [][]byte
	Flags  Flag
	Span   *obs.Span

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
	sp    *obs.Span
	fut   *vclock.Future
	epoch uint64
	pio   pendingIO
}

// At returns the completion's absolute virtual delivery time.
func (c *Completion) At() time.Duration { return c.pio.at }

// PrepareBatch validates and applies every command in cmds under a
// single device-lock acquisition, appends their pending completions to
// comps and returns it. State (write pointers, payloads, snapshots) is
// applied at submit exactly as in the individual command methods; crash-
// point hooks fire per command, after the whole batch is applied, plus
// one "zns.ring.drain" crossing carrying the accepted-command count.
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

	d.mu.Lock()
	epoch := d.epoch
	for i := range cmds {
		c := &cmds[i]
		c.Fut = &slab[i]
		var pio pendingIO
		var err error
		var hook string
		hookZone, hookArg := -1, int64(0)
		ss := d.cfg.SectorSize

		switch c.Op {
		case CmdWrite:
			if len(c.Data) == 0 || len(c.Data)%ss != 0 {
				err = ErrUnaligned
				break
			}
			n := int64(len(c.Data) / ss)
			pio, err = d.writeApplyLocked(c.Span, c.Sector, n, c.Data, nil, c.Flags)
			hook, hookZone, hookArg = "zns.cmd.write", d.ZoneOf(c.Sector), c.Sector
		case CmdWritev:
			if len(c.Segs) == 0 {
				err = ErrUnaligned
				break
			}
			if len(c.Segs) == 1 {
				// Mirror WritevSpan's single-segment devolution to Write.
				if len(c.Segs[0]) == 0 || len(c.Segs[0])%ss != 0 {
					err = ErrUnaligned
					break
				}
				n := int64(len(c.Segs[0]) / ss)
				pio, err = d.writeApplyLocked(c.Span, c.Sector, n, c.Segs[0], nil, c.Flags)
				hook, hookZone, hookArg = "zns.cmd.write", d.ZoneOf(c.Sector), c.Sector
				break
			}
			var n int64
			for _, s := range c.Segs {
				if len(s) == 0 || len(s)%ss != 0 {
					err = ErrUnaligned
					break
				}
				n += int64(len(s) / ss)
			}
			if err != nil {
				break
			}
			pio, err = d.writeApplyLocked(c.Span, c.Sector, n, nil, c.Segs, c.Flags)
			hook, hookZone, hookArg = "zns.cmd.write", d.ZoneOf(c.Sector), c.Sector
		case CmdAppend:
			if len(c.Data) == 0 || len(c.Data)%ss != 0 {
				err = ErrUnaligned
				break
			}
			if c.Zone < 0 || c.Zone >= d.cfg.NumZones {
				err = ErrOutOfRange
				break
			}
			n := int64(len(c.Data) / ss)
			sector := d.ZoneStart(c.Zone) + d.zones[c.Zone].wp
			pio, err = d.writeApplyLocked(c.Span, sector, n, c.Data, nil, c.Flags)
			if err == nil {
				c.Sector = sector
			}
			hook, hookZone, hookArg = "zns.cmd.append", c.Zone, sector
		case CmdRead:
			if len(c.Data) == 0 || len(c.Data)%ss != 0 {
				err = ErrUnaligned
				break
			}
			n := int64(len(c.Data) / ss)
			var src []byte
			if pio, src, err = d.readApplyLocked(c.Span, c.Sector, n); err == nil {
				fillRead(c.Data, src, 0, len(c.Data))
			}
		case CmdFlush:
			pio, err = d.flushApplyLocked(c.Span)
			hook, hookZone, hookArg = "zns.cmd.flush", -1, d.flushCount
		case CmdReset:
			pio, hookArg, err = d.resetApplyLocked(c.Span, c.Zone)
			hook, hookZone = "zns.zone.reset", c.Zone
		case CmdFinish:
			pio, hookArg, err = d.finishApplyLocked(c.Span, c.Zone)
			hook, hookZone = "zns.zone.finish", c.Zone
		default:
			err = ErrOutOfRange
		}

		if err != nil {
			c.Err = err
			continue
		}
		accepted++
		c.Done = pio.at
		if hook != "" {
			if hf := d.hookLocked(hook, hookZone, hookArg); hf != nil {
				hooks = append(hooks, hf)
			}
		}
		comps = append(comps, Completion{dev: d, sp: c.Span, fut: c.Fut, epoch: epoch, pio: pio})
	}
	var drain func()
	if accepted > 0 {
		drain = d.hookLocked("zns.ring.drain", -1, int64(accepted))
	}
	d.mu.Unlock()

	// Rejected commands complete synchronously, like the individual
	// methods' failSpan path.
	for i := range cmds {
		if c := &cmds[i]; c.Err != nil {
			c.Span.End(c.Err)
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
			c.sp.EndAt(c.pio.at, err)
			c.fut.Complete(err)
		}
		if onDone != nil {
			onDone()
		}
	})
}

// SubmitBatch prepares and delivers a batch on this device alone; see
// PrepareBatch and RunCompletions for the split callers use to reap
// several devices' batches with one walker.
func (d *Device) SubmitBatch(cmds []Cmd) {
	RunCompletions(d.clk, d.PrepareBatch(cmds, nil), nil)
}
