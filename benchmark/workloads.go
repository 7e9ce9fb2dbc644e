package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Fixed geometry of every run: 2 arrays x 5 devices (4 data + 1 parity),
// everything else as zns.DefaultConfig and raizn.DefaultConfig give it.
const (
	numArrays     = 2
	devsPerArray  = 5
	sectorBytes   = 4096
	zoneSectors   = 4096 // one logical zone: 4 data devices x 4 MiB
	stripeSectors = 64   // 4 x 64 KiB stripe units
	timedEpochs   = 9    // E; epoch 0 is the untimed warm-up
	setupRepeats  = 3    // set-ups per untraced run; setup_s is their median
	directOps     = 20000
	// baseSeconds is the --seconds value at which the epoch op counts below
	// apply unscaled (BENCHMARK.json's run_seconds).
	baseSeconds = 10
)

// workload is one row of the frozen workload table. Op counts are per
// timed epoch over all clients at scale 1; they were sized on the 2-core
// sandbox to about one second of host time each (README, "Frozen
// constants").
type workload struct {
	name   string
	stream string // generator name; workloads sharing it get identical ops
	why    string

	open         bool // open loop (Poisson arrivals) instead of closed
	clients      int  // vclock client goroutines = tenants
	epochOps     int
	prefillZones int  // volume zones written during set-up and read later
	zraid        bool // arrays created with the ZRAID parity engine
	failDevice   bool // fail one device per array after prefill

	rateOpsPerSec float64 // open loop only: frozen arrival rate, all tenants
	limitUs       float64 // latency limit, 3 x the baseline sim_p99_us
}

var workloads = []workload{
	{
		name: "seqwrite", stream: "seqwrite", clients: 4, epochOps: 5632, limitUs: 390,
		why: "full-stripe sequential appends (paper Fig. 9): parity, zns apply and raizn plan/submit do the work, ppengine and volmgr coalescing idle",
	},
	{
		name: "smallsync", stream: "smallsync", clients: 4, epochOps: 24000, limitUs: 7400,
		why: "4-16 KiB FUA appends (paper 5.1 worst case): partial-parity log and metadata dominate, highest WAF, parity bandwidth idle",
	},
	{
		name: "smallsync_zraid", stream: "smallsync", clients: 4, epochOps: 24000, zraid: true, limitUs: 2200,
		why: "same ops as smallsync on the ZRAID parity engine: the difference isolates ppengine and carries the flash-WAF claim",
	},
	{
		name: "randread", stream: "randread", clients: 4, epochOps: 56000, prefillZones: 32, limitUs: 270,
		why: "random 4/16/64 KiB reads of 512 MiB: healthy read path, fixed per-request cost dominates, no parity, no writes",
	},
	{
		name: "degraded", stream: "randread", clients: 4, epochOps: 56000, prefillZones: 32, failDevice: true, limitUs: 290,
		why: "same reads as randread with one device per array failed (paper Fig. 11/12): a fifth of the units rebuilt by parity.Reconstruct",
	},
	{
		name: "serve_open", stream: "serve_open", open: true, clients: 8, epochOps: 24000, prefillZones: 16,
		rateOpsPerSec: 32000, limitUs: 10000,
		why: "open-loop Poisson arrivals, 70% reads beside 30% sequential writes over 8 tenants: the only workload where volmgr queueing sets the tail",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// op is one client request. LBAs are volume addresses in sectors.
type op struct {
	due     time.Duration // open loop: offset from the epoch's start
	lba     int64
	sectors int32
	write   bool
	fua     bool
}

// stream is the whole input of a run: ops[epoch][client], epoch 0 being
// the warm-up. It is a pure function of (workload.stream, seed, scale).
type stream struct {
	ops            [][][]op
	zonesPerClient int // write zones each client needs in its busiest epoch
	hash           uint64
}

// volumeZones is the size of the volume a run creates: the prefilled
// region followed by every client's write zones, client c owning zones
// prefill+c, prefill+c+clients, ...
func (w *workload) volumeZones(scale float64, s *stream) int {
	return w.prefill(scale) + w.clients*s.zonesPerClient
}

// prefill scales the prefilled region with the run (never below two zones,
// so both arrays hold data).
func (w *workload) prefill(scale float64) int {
	if w.prefillZones == 0 {
		return 0
	}
	n := int(math.Round(float64(w.prefillZones) * scale))
	if n < 2 {
		n = 2
	}
	if n > w.prefillZones {
		n = w.prefillZones
	}
	return n
}

// opsPerClient is the fixed op count of one client in one epoch.
func (w *workload) opsPerClient(scale float64) int {
	n := int(math.Round(float64(w.epochOps) * scale / float64(w.clients)))
	if n < 8 {
		n = 8
	}
	return n
}

// writeCursor hands out a client's sequential write addresses: zone k of
// client c is volume zone prefill + c + k*clients. A write is clipped to
// what is left of the zone (writes may not cross a zone boundary).
type writeCursor struct {
	first, stride int64 // first zone, zone stride
	k, off        int64 // current own zone, sectors used in it
}

func (c *writeCursor) next(sectors int64) (lba int64, n int32) {
	if c.off == zoneSectors {
		c.k++
		c.off = 0
	}
	if left := zoneSectors - c.off; sectors > left {
		sectors = left
	}
	lba = (c.first+c.k*c.stride)*zoneSectors + c.off
	c.off += sectors
	return lba, int32(sectors)
}

func pick(rng *rand.Rand, sizes []int64) int64 { return sizes[rng.Intn(len(sizes))] }

var (
	smallSyncSizes = []int64{1, 2, 4}          // 4/8/16 KiB
	randReadSizes  = []int64{1, 4, 16}         // 4/16/64 KiB
	serveReadSizes = []int64{1, 2, 4, 8, 16}   // 4-64 KiB
	serveWriteSize = []int64{4, 8, 16, 32, 64} // 16-256 KiB, Zipf(1) by rank
)

// zipfRank draws rank r in [0,n) with weight 1/(r+1).
func zipfRank(rng *rand.Rand, n int) int {
	total := 0.0
	for r := 1; r <= n; r++ {
		total += 1 / float64(r)
	}
	x := rng.Float64() * total
	for r := 1; r <= n; r++ {
		x -= 1 / float64(r)
		if x < 0 {
			return r - 1
		}
	}
	return n - 1
}

// alignedRead draws a read of the given size, aligned to its size, inside
// the prefilled region.
func alignedRead(rng *rand.Rand, prefillZones int, sectors int64) int64 {
	slots := int64(prefillZones) * zoneSectors / sectors
	return rng.Int63n(slots) * sectors
}

func streamSeed(name string, seed int64, epoch, client int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(epoch))
	binary.LittleEndian.PutUint64(b[16:], uint64(client))
	h.Write(b[:])
	return int64(h.Sum64())
}

// generate builds every epoch's ops. Each (epoch, client) draws from its
// own generator, so nothing depends on goroutine order.
func generate(w *workload, seed int64, scale float64, epochs int) *stream {
	s := &stream{ops: make([][][]op, epochs)}
	perClient := w.opsPerClient(scale)
	prefill := w.prefill(scale)
	// The hash covers every input: the seed, which also makes the payloads,
	// then each op.
	h := fnv.New64a()
	var rec [32]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(seed))
	h.Write(rec[:8])
	for e := 0; e < epochs; e++ {
		s.ops[e] = make([][]op, w.clients)
		for c := 0; c < w.clients; c++ {
			rng := rand.New(rand.NewSource(streamSeed(w.stream, seed, e, c)))
			cur := writeCursor{first: int64(prefill + c), stride: int64(w.clients)}
			ops := make([]op, perClient)
			var due time.Duration
			for i := range ops {
				o := &ops[i]
				switch w.stream {
				case "seqwrite":
					o.write = true
					o.lba, o.sectors = cur.next(stripeSectors)
				case "smallsync":
					o.write, o.fua = true, true
					o.lba, o.sectors = cur.next(pick(rng, smallSyncSizes))
				case "randread":
					n := pick(rng, randReadSizes)
					o.lba, o.sectors = alignedRead(rng, prefill, n), int32(n)
				case "serve_open":
					// Poisson arrivals: each tenant draws exponential gaps
					// at its share of the frozen rate.
					gap := rng.ExpFloat64() * float64(w.clients) / w.rateOpsPerSec
					due += time.Duration(gap * float64(time.Second))
					o.due = due
					if rng.Float64() < 0.3 {
						o.write = true
						o.lba, o.sectors = cur.next(serveWriteSize[zipfRank(rng, len(serveWriteSize))])
					} else {
						n := pick(rng, serveReadSizes)
						o.lba, o.sectors = alignedRead(rng, prefill, n), int32(n)
					}
				default:
					panic("benchmark: unknown stream " + w.stream)
				}
				binary.LittleEndian.PutUint64(rec[0:], uint64(o.due))
				binary.LittleEndian.PutUint64(rec[8:], uint64(o.lba))
				binary.LittleEndian.PutUint32(rec[16:], uint32(o.sectors))
				rec[20], rec[21] = 0, 0
				if o.write {
					rec[20] = 1
				}
				if o.fua {
					rec[21] = 1
				}
				h.Write(rec[:22])
			}
			s.ops[e][c] = ops
			if used := int(cur.k) + 1; cur.off+cur.k > 0 && used > s.zonesPerClient {
				s.zonesPerClient = used
			}
		}
	}
	s.hash = h.Sum64()
	return s
}
