package raizn

// MetadataFootprint reports the persistent-location, per-update storage,
// and memory footprint of each RAIZN metadata type for this volume's
// geometry — the contents of the paper's Table 1.
type MetadataFootprint struct {
	SectorBytes      int
	StripeUnitBytes  int64
	DataDevices      int
	Devices          int
	LogicalZones     int
	PhysZoneCapBytes int64
	LogicalZoneBytes int64

	HeaderBytes             int   // per-record header sector
	RemappedUnitStorage     int64 // header + stripe unit, affected device only
	ZoneResetLogStorage     int64 // header sector, two devices
	GenCounterStorage       int64 // header sector per update, all devices
	GenCounterMemPerZone    float64
	PartialParityStorageMax int64 // header + <= stripe unit, parity device
	SuperblockStorage       int64 // header sector, all devices
	StripeBufferBytes       int64 // per buffer: the running-parity unit and D unit CRCs
	StripeBuffersPerZone    int
	PersistBitmapPerZone    int64 // bytes, one bit per stripe unit
	ZoneDescriptorBytes     int   // per zone (physical and logical alike)
}

// Footprint computes the Table 1 quantities for this volume.
func (v *Volume) Footprint() MetadataFootprint {
	ss := int64(v.sectorSize)
	suBytes := v.lt.su * ss
	nSU := v.lt.zoneSectors() / v.lt.su
	return MetadataFootprint{
		SectorBytes:      v.sectorSize,
		StripeUnitBytes:  suBytes,
		DataDevices:      v.lt.d,
		Devices:          v.lt.n,
		LogicalZones:     v.lt.numZones,
		PhysZoneCapBytes: v.lt.physZoneCap * ss,
		LogicalZoneBytes: v.lt.zoneSectors() * ss,

		HeaderBytes:             v.sectorSize,
		RemappedUnitStorage:     ss + suBytes,
		ZoneResetLogStorage:     ss,
		GenCounterStorage:       ss,
		GenCounterMemPerZone:    8 + float64(headerBytes)/float64(gensPerBlock),
		PartialParityStorageMax: ss + suBytes,
		SuperblockStorage:       ss,
		StripeBufferBytes:       suBytes + 4*int64(v.lt.d),
		StripeBuffersPerZone:    stripeBuffersPerZone,
		PersistBitmapPerZone:    (nSU + 7) / 8,
		ZoneDescriptorBytes:     64,
	}
}
