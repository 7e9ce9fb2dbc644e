package zns

import "errors"

// This file names the optional Zone Random Write Area (ZRWA), which the
// paper's §5.4 discusses as a future optimization for RAIZN: a window of
// ZRWASectors behind the write pointer that may be overwritten in place,
// letting a host update recently written blocks (e.g. partial parity)
// without violating the sequential-write rule. It is disabled by default
// (ZRWASectors = 0), matching the devices in the paper's testbed.
//
// A ZRWA write is any write command with the ZRWA flag, and it goes through
// the one write path (writeApplyLocked): it may start anywhere in
// [wp-ZRWASectors, wp] and may also extend past the write pointer
// (advancing it), so a caller can grow and re-grow a record in place. An
// overwrite in place first finishes the zone's copies in flight (the drain
// rule, readcopy.go). Unlike other writes, it copies its payload into zone
// memory at submit, so the payload is the caller's again at return: left
// to the copy job, the zraid engine's slot writes cost smallsync_zraid
// about half again as much host CPU per op, most likely because a slot
// write of more than one chunk wakes the parked copier (the wake rule,
// readcopy.go). It pays Preflush like any write.
// Crash semantics simplification: an unflushed in-place overwrite that is
// lost to power failure reverts to nothing (the zone prefix cut), not to
// the previous version of the block.

// Extension errors.
var (
	ErrNoZRWA      = errors.New("zns: device has no ZRWA configured")
	ErrOutsideZRWA = errors.New("zns: overwrite outside the random write area")
)
