package raizn

import (
	"errors"

	"raizn/internal/obs"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// loggedEngine adapts the paper's partial-parity logging (§5.1) to the
// ppengine.Engine interface. It is a thin shim over the volume's metadata
// managers: Persist appends a recPartialParity record to the parity
// metadata zone of the target device. Stripe lifecycle notifications are
// no-ops — logged records are reclaimed wholesale by the metadata garbage
// collector, and recovery filters stale ones by generation and stripe
// state.
type loggedEngine struct {
	v *Volume
}

func (le *loggedEngine) Kind() ppengine.Kind { return ppengine.Logged }

// Persist appends the image as a §5.1 log record. A failed parity
// device persists nothing (the data units carry the write, §4.2), which
// is success for the caller.
func (le *loggedEngine) Persist(a ppengine.Append) (*vclock.Future, int64) {
	return le.v.logPartialParity(a)
}

// logPartialParity appends the image in a's frame to the parity metadata
// log of a.Dev: it encodes the record header into the frame's header
// sector and appends the frame as it stands. It returns the append's
// completion and the device sector it ends at; (nil, 0) when the device
// has failed.
func (v *Volume) logPartialParity(a ppengine.Append) (*vclock.Future, int64) {
	m := v.mdm(a.Dev)
	if m == nil {
		return nil, 0 // device failed: degraded
	}
	ss := v.sectorSize
	rec := record{
		typ:      recPartialParity,
		startLBA: a.StartLBA,
		endLBA:   a.EndLBA,
		gen:      a.Gen,
		payload:  a.Frame[ss:],
	}
	rec.encodeInto(a.Frame[:ss])
	child := a.Span.Child(obs.OpMDAppend, a.Dev, a.StartLBA, int64(len(rec.payload)))
	fut, pba, err := m.appendEncoded(child, a.Fut, rec.typ, a.Frame, zns.Flag(a.Flags))
	if err != nil {
		child.End(err)
		if errors.Is(err, zns.ErrDeviceFailed) {
			v.noteDeviceError(a.Dev, err)
			return nil, 0
		}
		return v.clk.Completed(err), 0
	}
	return fut, pba + rec.sectors(ss)
}

func (le *loggedEngine) StripeClosed(zone int, stripe int64) {}
func (le *loggedEngine) ZoneReset(zone int)                  {}

// Scan returns nil: logged records surface through the ordinary
// metadata-zone scan at mount.
func (le *loggedEngine) Scan() ([]ppengine.Record, error) { return nil, nil }

// Stats derives the byte counters from the volume's layered WA
// accounting: every logged partial-parity byte is programmed to flash.
func (le *loggedEngine) Stats() ppengine.Stats {
	return ppengine.Stats{
		PermanentBytes: le.v.stats.waPPHeaderBytes.Load() + le.v.stats.waPPPayloadBytes.Load(),
	}
}

func (le *loggedEngine) Format() error { return nil }
