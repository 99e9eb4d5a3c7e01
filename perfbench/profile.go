package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU shares by layer. The traced loop runs under the CPU profiler; each
// sample is attributed to every layer that has a frame on its stack, so
// a layer's share is the fraction of process CPU spent in it or in what
// it called. Only the few fields of the profile.proto encoding needed for
// that are decoded here.

// cpuShares returns, for each layer prefix, the fraction of samples
// whose stack has a function whose name starts with one of its prefixes.
func cpuShares(gz []byte, layers map[string][]string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids
		samples []pbSample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.values = pbUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var total float64
	hits := make(map[string]float64, len(layers))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[0])
		total += w
		for layer, prefixes := range layers {
		stack:
			for _, l := range s.locs {
				for _, fn := range locs[l] {
					n := name(fn)
					for _, p := range prefixes {
						if strings.HasPrefix(n, p) {
							hits[layer] += w
							break stack
						}
					}
				}
			}
		}
	}
	out := make(map[string]float64, len(layers))
	for layer := range layers {
		if total > 0 {
			out[layer] = hits[layer] / total
		}
	}
	return out, nil
}

type pbSample struct{ locs, values []uint64 }

// pbFields calls fn for each field of a protobuf message: v carries a
// varint value, b a length-delimited payload.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated uint64 field that arrived either packed (b)
// or as one varint (v).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
