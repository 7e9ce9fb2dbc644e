package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto a Go CPU profile is, just
// enough to bucket samples by package: sample stacks, the functions their
// locations point at, and the string table. The module has no dependency
// that parses profiles and the benchmark may add none.

var errProfile = errors.New("benchmark: malformed CPU profile")

// pbField is one decoded protobuf field: a varint value or a byte payload.
type pbField struct {
	num   int
	val   uint64
	bytes []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbFields decodes one message's top-level fields.
func pbFields(b []byte, each func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			if f.val, b, err = pbVarint(b); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2: // length-delimited
			n, rest, err := pbVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return errProfile
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5: // 32-bit
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := each(f); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field's values, packed or not.
func pbRepeated(dst []uint64, f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.val), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// cpuSample is one profile sample: its stack as function names, leaf
// first, and its sample count.
type cpuSample struct {
	stack []string
	count int64
}

func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := pbFields(f.bytes, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbRepeated(s.locs, g)
				case 2:
					vals, err = pbRepeated(vals, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const internalPrefix = "raizn/internal/"

// layerOf names the layer a sample belongs to: the package of the first
// raizn/internal frame walking up from the leaf, "runtime" when the stack
// has none (scheduler, garbage collector, and the benchmark's own frames).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
		}
	}
	return "runtime"
}

// cpuShares buckets a profile's samples by layer, as shares of all samples.
func cpuShares(samples []cpuSample) map[string]float64 {
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		shares[layerOf(s.stack)] += float64(s.count)
		total += float64(s.count)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
