package zns

import "raizn/internal/obs"

// RegisterMetrics publishes the device's lifetime counters into the
// registry as pull-style gauges under the given prefix (conventionally
// "zns_dev<i>"). The gauge funcs take d.mu at snapshot time, so
// snapshots must not be taken while holding the device lock.
func (d *Device) RegisterMetrics(r *obs.Registry, prefix string) {
	lockedInt := func(f func() int64) func() int64 {
		return func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return f()
		}
	}
	g := func(name string, f func() int64) {
		r.GaugeFunc(prefix+name, lockedInt(f))
	}
	g("_host_write_bytes", func() int64 { return d.hostWriteBytes })
	g("_flash_program_bytes", func() int64 { return d.flashProgramBytes })
	g("_host_read_bytes", func() int64 { return d.hostReadBytes })
	g("_write_cmds_total", func() int64 { return d.writeCmds })
	g("_flushes_total", func() int64 { return d.flushCount })
	g("_resets_total", func() int64 { return d.resetCount })
	g("_latent_sectors_total", func() int64 { return d.injectedReadErrs })
	g("_bitrot_sectors_total", func() int64 { return d.injectedRot })
	g("_read_medium_errs_total", func() int64 { return d.readMediumErrs })
	g("_open_zones", func() int64 { return int64(d.nOpen) })
	g("_active_zones", func() int64 { return int64(d.nActive) })
}

// AttachJournal points the device at a shared event journal: zone
// lifecycle transitions (open/close/full, reset, finish) record under
// source slot (conventionally the device's array index). Safe to call
// before any IO; passing nil detaches.
func (d *Device) AttachJournal(j *obs.Journal, slot int) {
	d.mu.Lock()
	d.jrn, d.jslot = j, slot
	d.mu.Unlock()
}

// Journal returns the attached journal (nil if none).
func (d *Device) Journal() *obs.Journal {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.jrn
}

// AttachHook points the device at a crash-point hook: every accepted
// write/append/flush command and zone reset/finish fires one obs.HookPoint
// under source slot, after the state transition is applied and with no
// device lock held. Attach before issuing IO; passing nil detaches.
func (d *Device) AttachHook(h obs.Hook, slot int) {
	d.mu.Lock()
	d.hook, d.hslot = h, slot
	d.mu.Unlock()
}

// hookLocked returns a fire closure for the named point, or nil when no
// hook is attached. Caller holds d.mu; the returned closure must be
// invoked after d.mu is released (hooks may call back into the device).
func (d *Device) hookLocked(name string, zone int, arg int64) func() {
	if d.hook == nil {
		return nil
	}
	h, p := d.hook, obs.HookPoint{Name: name, Src: d.hslot, Zone: zone, Arg: arg}
	return func() { h(p) }
}

// fire invokes a hookLocked closure; no-op on nil.
func fire(f func()) {
	if f != nil {
		f()
	}
}
