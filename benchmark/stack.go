package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// Payloads are a pure function of (seed, LBA): sector L holds sector
// L mod poolSectors of a seeded random pool. poolSectors is prime and
// shares no factor with the stripe-unit, stripe or zone strides, so a
// misplaced unit, stripe or zone shows as a mismatch. A write's payload is
// a slice of the pool (the tail repeats the head so any run of up to one
// stripe is contiguous): the clients spend no host time making data.
const poolSectors = 509

func newPayloadPool(seed int64) []byte {
	pool := make([]byte, (poolSectors+stripeSectors)*sectorBytes)
	rand.New(rand.NewSource(seed)).Read(pool[:poolSectors*sectorBytes])
	copy(pool[poolSectors*sectorBytes:], pool[:stripeSectors*sectorBytes])
	return pool
}

func payload(pool []byte, lba int64, sectors int32) []byte {
	at := (lba % poolSectors) * sectorBytes
	return pool[at : at+int64(sectors)*sectorBytes]
}

// array is one RAIZN array and every device that was ever part of it
// (failed and replaced devices still hold their lifetime counters).
type array struct {
	vol     *raizn.Volume
	devs    []*zns.Device // current members, slot order
	retired []*zns.Device // failed members
	cfg     raizn.Config
	tracer  *obs.Tracer  // traced runs only
	journal *obs.Journal // traced runs only
}

func (a *array) allDevices() []*zns.Device {
	var out []*zns.Device
	for _, d := range append(append([]*zns.Device(nil), a.devs...), a.retired...) {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// stack is the system under test: the arrays, the volume manager over
// them and the one volume every client talks to.
type stack struct {
	w     *workload
	clk   *vclock.Clock
	scale float64
	zones int // volume zones
	pool  []byte

	arrays []*array
	mgr    *volmgr.Manager
	vol    *volmgr.Volume

	userWritten int64 // bytes of writes that completed, set-up included
}

func tenantID(c int) string { return fmt.Sprintf("t%d", c) }
func arrayID(i int) string  { return fmt.Sprintf("a%d", i) }

// arraysByID indexes the arrays by the id the volume manager knows them by,
// which is what an extent map names.
func arraysByID(arrays []*array) map[string]*array {
	byID := make(map[string]*array, len(arrays))
	for i, a := range arrays {
		byID[arrayID(i)] = a
	}
	return byID
}

// ioTarget is where clients send their ops: the volume manager's volume,
// or, for the direct replay, the arrays themselves.
type ioTarget interface {
	SubmitWrite(tenant string, lba int64, data []byte, flags zns.Flag) (*vclock.Future, error)
	SubmitRead(tenant string, lba int64, buf []byte) (*vclock.Future, error)
}

func (w *workload) deviceConfig() zns.Config {
	cfg := zns.DefaultConfig()
	if w.zraid {
		// The ZRAID engine needs a random write area of at least one PP
		// slot; three slots, as raizn-bench -exp waf uses.
		cfg.ZRWASectors = 51
	}
	return cfg
}

// newArrays creates the run's empty arrays with default configurations.
func newArrays(clk *vclock.Clock, w *workload, traced bool) ([]*array, error) {
	arrays := make([]*array, numArrays)
	for i := range arrays {
		a := &array{cfg: raizn.DefaultConfig()}
		if w.zraid {
			a.cfg.ParityEngine = raizn.EngineZRAID
		}
		if traced {
			a.tracer = obs.NewTracer(clk, obs.Config{})
			a.journal = obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 18})
			a.cfg.Tracer, a.cfg.Journal = a.tracer, a.journal
		}
		for d := 0; d < devsPerArray; d++ {
			a.devs = append(a.devs, zns.NewDevice(clk, w.deviceConfig()))
		}
		vol, err := raizn.Create(clk, a.devs, a.cfg)
		if err != nil {
			return nil, fmt.Errorf("create array %d: %w", i, err)
		}
		a.vol = vol
		arrays[i] = a
	}
	return arrays, nil
}

// newManager builds a fresh volume manager and volume over the arrays.
// volmgr never frees zones, so every epoch gets its own manager; placement
// is deterministic, so the volume lands on the same array zones each time.
func (s *stack) newManager() error {
	m := volmgr.NewManager(s.clk, volmgr.Config{})
	for i, a := range s.arrays {
		if _, err := m.AddArray(arrayID(i), a.vol); err != nil {
			return err
		}
	}
	spec := volmgr.VolumeSpec{Zones: s.zones}
	for c := 0; c < s.w.clients; c++ {
		spec.Tenants = append(spec.Tenants, volmgr.TenantConfig{ID: tenantID(c)})
	}
	v, err := m.CreateVolume("bench", spec)
	if err != nil {
		return err
	}
	s.mgr, s.vol = m, v
	return nil
}

// resetWriteZones empties every zone past the prefilled region through the
// arrays' own reset path, so the next epoch writes the same zones again.
func (s *stack) resetWriteZones() error {
	byID := arraysByID(s.arrays)
	for _, e := range s.vol.ExtentMap()[s.w.prefill(s.scale):] {
		if err := byID[e.Array].vol.ResetZone(e.Zone); err != nil {
			return fmt.Errorf("reset zone %d of %s: %w", e.Zone, e.Array, err)
		}
	}
	return nil
}

// prefillVolume writes the read region with full-stripe writes, client c
// filling zones c, c+clients, ... in parallel.
func (s *stack) prefillVolume(target ioTarget) error {
	n := s.w.prefill(s.scale)
	wg := s.clk.NewWaitGroup()
	errs := make([]error, s.w.clients)
	for c := 0; c < s.w.clients; c++ {
		c := c
		wg.Add(1)
		s.clk.Go(func() {
			defer wg.Done()
			for z := c; z < n; z += s.w.clients {
				for off := int64(0); off < zoneSectors; off += stripeSectors {
					lba := int64(z)*zoneSectors + off
					fut, err := target.SubmitWrite(tenantID(c), lba, payload(s.pool, lba, stripeSectors), 0)
					if err == nil {
						err = fut.Wait()
					}
					if err != nil {
						errs[c] = err
						return
					}
				}
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	s.userWritten += int64(n) * zoneSectors * sectorBytes
	return nil
}

// failDevices fails device 1 of every array (the degraded workload).
func (s *stack) failDevices() error {
	for _, a := range s.arrays {
		if err := a.vol.FailDevice(1); err != nil {
			return err
		}
		a.retired = append(a.retired, a.devs[1])
		a.devs[1] = nil
	}
	return nil
}

// readBack reads [lba, lba+sectors) through the volume and reports whether
// it holds the payload the seed defines for it.
func (s *stack) readBack(tenant string, lba int64, sectors int32, buf []byte) (bool, error) {
	buf = buf[:int(sectors)*sectorBytes]
	if err := s.vol.Read(tenant, lba, buf); err != nil {
		return false, err
	}
	return bytes.Equal(buf, payload(s.pool, lba, sectors)), nil
}

// verifyOps reads back a sample of the given epoch's ops (what the writes
// wrote, or what the reads read) and counts the reads made and the ones
// that failed or held the wrong bytes.
func (s *stack) verifyOps(ops [][]op) (attempted, failed int64) {
	const samplesPerClient = 256
	buf := make([]byte, stripeSectors*sectorBytes)
	for c, list := range ops {
		step := len(list)/samplesPerClient + 1
		for i := 0; i < len(list); i += step {
			attempted++
			if ok, err := s.readBack(tenantID(c), list[i].lba, list[i].sectors, buf); err != nil || !ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// verifyPrefill reads the whole prefilled region back, one stripe a read.
func (s *stack) verifyPrefill() (attempted, failed int64) {
	buf := make([]byte, stripeSectors*sectorBytes)
	end := int64(s.w.prefill(s.scale)) * zoneSectors
	for lba := int64(0); lba < end; lba += stripeSectors {
		attempted++
		if ok, err := s.readBack(tenantID(0), lba, stripeSectors, buf); err != nil || !ok {
			failed++
		}
	}
	return attempted, failed
}

// remount closes the manager, unmounts every array and mounts it again
// from its devices alone, then rebuilds manager and volume on top: what
// was acknowledged and flushed must still be there.
func (s *stack) remount() error {
	if err := s.mgr.Close(); err != nil {
		return err
	}
	for i, a := range s.arrays {
		if err := a.vol.Unmount(); err != nil {
			return fmt.Errorf("unmount array %d: %w", i, err)
		}
		vol, err := raizn.Mount(s.clk, a.devs, a.cfg)
		if err != nil {
			return fmt.Errorf("mount array %d: %w", i, err)
		}
		a.vol = vol
	}
	return s.newManager()
}

// rebuild replaces the failed device of array 0 with a blank one.
func (s *stack) rebuild() (raizn.RebuildStats, error) {
	a := s.arrays[0]
	slot := a.vol.Degraded()
	fresh := zns.NewDevice(s.clk, s.w.deviceConfig())
	st, err := a.vol.ReplaceDevice(fresh)
	if err == nil {
		a.devs[slot] = fresh
	}
	return st, err
}
