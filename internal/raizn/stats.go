package raizn

import (
	"fmt"

	"raizn/internal/obs"
	"raizn/internal/ppengine"
)

// Stats are lifetime volume counters, useful for write-amplification
// analysis and for verifying which mechanisms a workload exercises.
type Stats struct {
	LogicalWriteBytes int64 // host data accepted by SubmitWrite/Append
	LogicalReadBytes  int64 // host data returned by SubmitRead
	PartialParityLogs int64 // §5.1 log records written
	FullParityWrites  int64 // full-stripe parity units written
	Relocations       int64 // §5.2 relocated fragments created
	ZoneResets        int64 // logical zone resets completed
	MetadataGCs       int64 // metadata zone roll-overs
	MetadataGCWaits   int64 // appends that waited for a swap zone (back-pressure)
	MDGCsCoordinated  int64 // of MetadataGCs: started by a sibling device's roll-over, not by a full zone
	DegradedReads     int64 // stripe-unit pieces served by reconstruction
	FUAFlushes        int64 // device flushes issued for FUA/Preflush writes and zone finishes
	FUAFlushesJoined  int64 // flush needs of such writes served by a flush already in flight

	CoalescedSubWrites int64 // sub-IOs merged into a preceding device write
	// (a vectored command carrying k sub-IOs adds k-1)

	ReconstructMismatches int64 // whole-unit reconstructions failed for disagreeing with their checksum row (ErrChecksumMismatch)

	ChecksumRecords     int64 // stripe-checksum metadata records written
	ReadErrorRepairs    int64 // foreground reads recovered via reconstruction
	ScrubbedStripes     int64 // stripes fully verified by scrub
	ScrubSkippedStripes int64 // stripes scrub could not verify (partial/racing)
	ScrubMismatches     int64 // stripes where XOR or CRC verification failed
	ScrubRepairedData   int64 // corrupted data units repaired by scrub
	ScrubRepairedParity int64 // corrupted parity units repaired by scrub
	ScrubUnrepaired     int64 // mismatched stripes scrub could not attribute/repair
}

// statsCounters is embedded in Volume. Every field is a registry-backed
// counter (an atomic add on the hot path), so the same numbers are
// visible both through the legacy Stats() view and through registry
// snapshots/exports under their raizn_* names.
type statsCounters struct {
	logicalWriteBytes *obs.Counter
	logicalReadBytes  *obs.Counter
	partialParityLogs *obs.Counter
	fullParityWrites  *obs.Counter
	relocations       *obs.Counter
	zoneResets        *obs.Counter
	metadataGCs       *obs.Counter
	mdGCWaits         *obs.Counter
	mdGCCoordinated   *obs.Counter
	degradedReads     *obs.Counter
	fuaFlushes        *obs.Counter
	fuaFlushesJoined  *obs.Counter

	coalescedSubWrites *obs.Counter

	reconstructMismatches *obs.Counter

	checksumRecords     *obs.Counter
	readErrorRepairs    *obs.Counter
	scrubbedStripes     *obs.Counter
	scrubSkippedStripes *obs.Counter
	scrubMismatches     *obs.Counter
	scrubRepairedData   *obs.Counter
	scrubRepairedParity *obs.Counter
	scrubUnrepaired     *obs.Counter

	// Layered write-amplification accounting: every byte the raizn
	// layer puts on a device is charged to exactly one category, so
	// summing them reproduces total device host writes and the WAReport
	// can decompose the amplification by cause.
	waDataBytes      *obs.Counter // user data at its arithmetic (or relocated) location
	waParityBytes    *obs.Counter // full-stripe and relocated parity images
	waPPHeaderBytes  *obs.Counter // §5.1 partial-parity record header sectors
	waPPPayloadBytes *obs.Counter // §5.1 partial-parity payload sectors
	waMetadataBytes  *obs.Counter // superblock/gen/WAL/checksum/checkpoint records + reloc headers
	waRebuildBytes   *obs.Counter // reconstruction writes to a replacement device
}

func newStatsCounters(r *obs.Registry, label string) statsCounters {
	// A non-empty array label turns every series into name{array="..."}
	// so multiple arrays sharing one registry keep distinct counters; an
	// empty label preserves the original bare names (see Config.
	// MetricsLabel).
	n := func(name string) string { return obs.LabeledName(name, "array", label) }
	return statsCounters{
		logicalWriteBytes: r.Counter(n("raizn_logical_write_bytes")),
		logicalReadBytes:  r.Counter(n("raizn_logical_read_bytes")),
		partialParityLogs: r.Counter(n("raizn_partial_parity_logs_total")),
		fullParityWrites:  r.Counter(n("raizn_full_parity_writes_total")),
		relocations:       r.Counter(n("raizn_relocations_total")),
		zoneResets:        r.Counter(n("raizn_zone_resets_total")),
		metadataGCs:       r.Counter(n("raizn_metadata_gcs_total")),
		mdGCWaits:         r.Counter(n("raizn_md_gc_waits_total")),
		mdGCCoordinated:   r.Counter(n("raizn_md_gc_coordinated_total")),
		degradedReads:     r.Counter(n("raizn_degraded_reads_total")),
		fuaFlushes:        r.Counter(n("raizn_fua_flushes_total")),
		fuaFlushesJoined:  r.Counter(n("raizn_fua_flushes_joined_total")),

		coalescedSubWrites: r.Counter(n("raizn_coalesced_sub_writes_total")),

		reconstructMismatches: r.Counter(n("raizn_reconstruct_mismatch_total")),

		checksumRecords:     r.Counter(n("raizn_checksum_records_total")),
		readErrorRepairs:    r.Counter(n("raizn_read_error_repairs_total")),
		scrubbedStripes:     r.Counter(n("raizn_scrubbed_stripes_total")),
		scrubSkippedStripes: r.Counter(n("raizn_scrub_skipped_stripes_total")),
		scrubMismatches:     r.Counter(n("raizn_scrub_mismatches_total")),
		scrubRepairedData:   r.Counter(n("raizn_scrub_repaired_data_total")),
		scrubRepairedParity: r.Counter(n("raizn_scrub_repaired_parity_total")),
		scrubUnrepaired:     r.Counter(n("raizn_scrub_unrepaired_total")),

		waDataBytes:      r.Counter(n("raizn_wa_data_bytes")),
		waParityBytes:    r.Counter(n("raizn_wa_parity_bytes")),
		waPPHeaderBytes:  r.Counter(n("raizn_wa_pp_header_bytes")),
		waPPPayloadBytes: r.Counter(n("raizn_wa_pp_payload_bytes")),
		waMetadataBytes:  r.Counter(n("raizn_wa_metadata_bytes")),
		waRebuildBytes:   r.Counter(n("raizn_wa_rebuild_bytes")),
	}
}

// registerEngineMetrics publishes the partial-parity counters as
// pull-style gauges. Like the statsCounters, a non-empty
// array label namespaces every series (name{array="..."}) so arrays
// sharing a volume-manager registry stay collision-free.
func registerEngineMetrics(r *obs.Registry, label string, stats func() ppengine.Stats) {
	n := func(name string) string { return obs.LabeledName(name, "array", label) }
	g := func(name string, f func(ppengine.Stats) int64) {
		r.GaugeFunc(n(name), func() int64 { return f(stats()) })
	}
	g("raizn_pp_volatile_bytes", func(s ppengine.Stats) int64 { return s.VolatileBytes })
	g("raizn_pp_permanent_bytes", func(s ppengine.Stats) int64 { return s.PermanentBytes })
	g("raizn_pp_fallback_total", func(s ppengine.Stats) int64 { return s.FallbackTotal })
}

// Stats returns a snapshot of the volume's lifetime counters. It is a
// thin view over the registry-backed counters.
func (v *Volume) Stats() Stats {
	return Stats{
		LogicalWriteBytes: v.stats.logicalWriteBytes.Load(),
		LogicalReadBytes:  v.stats.logicalReadBytes.Load(),
		PartialParityLogs: v.stats.partialParityLogs.Load(),
		FullParityWrites:  v.stats.fullParityWrites.Load(),
		Relocations:       v.stats.relocations.Load(),
		ZoneResets:        v.stats.zoneResets.Load(),
		MetadataGCs:       v.stats.metadataGCs.Load(),
		MetadataGCWaits:   v.stats.mdGCWaits.Load(),
		MDGCsCoordinated:  v.stats.mdGCCoordinated.Load(),
		DegradedReads:     v.stats.degradedReads.Load(),
		FUAFlushes:        v.stats.fuaFlushes.Load(),
		FUAFlushesJoined:  v.stats.fuaFlushesJoined.Load(),

		CoalescedSubWrites: v.stats.coalescedSubWrites.Load(),

		ReconstructMismatches: v.stats.reconstructMismatches.Load(),

		ChecksumRecords:     v.stats.checksumRecords.Load(),
		ReadErrorRepairs:    v.stats.readErrorRepairs.Load(),
		ScrubbedStripes:     v.stats.scrubbedStripes.Load(),
		ScrubSkippedStripes: v.stats.scrubSkippedStripes.Load(),
		ScrubMismatches:     v.stats.scrubMismatches.Load(),
		ScrubRepairedData:   v.stats.scrubRepairedData.Load(),
		ScrubRepairedParity: v.stats.scrubRepairedParity.Load(),
		ScrubUnrepaired:     v.stats.scrubUnrepaired.Load(),
	}
}

// accountMDBytes charges a metadata append's sectors to the layered WA
// categories: partial-parity headers and payloads separately (§5.1),
// relocation payloads back to the data/parity category they carry
// (§5.2), everything else — superblock, generation counters, reset WAL,
// stripe checksums, GC checkpoints — to metadata. Checkpoint copies are
// pure metadata churn regardless of the record they re-persist.
func (v *Volume) accountMDBytes(typ recType, headerSectors, payloadSectors int64) {
	ss := int64(v.sectorSize)
	hdr, pay := headerSectors*ss, payloadSectors*ss
	if typ&recCheckpoint != 0 {
		v.stats.waMetadataBytes.Add(hdr + pay)
		return
	}
	switch typ.base() {
	case recPartialParity:
		v.stats.waPPHeaderBytes.Add(hdr)
		v.stats.waPPPayloadBytes.Add(pay)
	case recRelocData:
		v.stats.waMetadataBytes.Add(hdr)
		v.stats.waDataBytes.Add(pay)
	case recRelocParity:
		v.stats.waMetadataBytes.Add(hdr)
		v.stats.waParityBytes.Add(pay)
	default:
		v.stats.waMetadataBytes.Add(hdr + pay)
	}
}

// recordMDEvent journals one metadata append into the event stream:
// live partial-parity records get their own event type (§5.1 traffic is
// a headline WA cause); everything else is a metadata-write event
// carrying the record type. zone is the physical metadata zone appended
// to on device dev.
func (v *Volume) recordMDEvent(dev, zone int, typ recType, hdrSectors, paySectors int64) {
	if !v.jrn.Enabled() {
		return
	}
	ss := int64(v.sectorSize)
	if typ.base() == recPartialParity && typ&recCheckpoint == 0 {
		v.jrn.Record(obs.EvPartialParity, dev, zone, paySectors*ss, hdrSectors*ss, 0, 0)
		return
	}
	v.jrn.Record(obs.EvMetadataWrite, dev, zone, paySectors*ss, hdrSectors*ss, int64(typ), 0)
}

// WAReport assembles the layered write-amplification report: user bytes
// accepted at the top, the raizn layer's per-category physical writes in
// the middle, and each device's host-write total at the bottom. The
// category sum and the device sum describe the same bytes from the two
// sides of the device interface, so they agree once in-flight IO drains.
func (v *Volume) WAReport() *obs.WAReport {
	rep := &obs.WAReport{
		UserBytes: v.stats.logicalWriteBytes.Load(),
		Categories: []obs.WACategory{
			{Name: "data", Bytes: v.stats.waDataBytes.Load()},
			{Name: "parity", Bytes: v.stats.waParityBytes.Load()},
			{Name: "pp-header", Bytes: v.stats.waPPHeaderBytes.Load()},
			{Name: "pp-payload", Bytes: v.stats.waPPPayloadBytes.Load()},
			{Name: "metadata", Bytes: v.stats.waMetadataBytes.Load()},
			{Name: "rebuild", Bytes: v.stats.waRebuildBytes.Load()},
		},
	}
	for i := range v.devs {
		d := v.dev(i)
		if d == nil {
			rep.Devices = append(rep.Devices, obs.WADevice{Name: fmt.Sprintf("dev%d (failed)", i)})
			continue
		}
		w, _, _, _ := d.Counters()
		rep.Devices = append(rep.Devices, obs.WADevice{Name: fmt.Sprintf("dev%d", i), HostBytes: w})
	}
	return rep
}
