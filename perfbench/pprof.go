package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The tensor kernels have no public boundary inside Conv2D, so their share of
// the run comes from a CPU profile: each sample is charged to the innermost
// frame outside the Go runtime, and counted for a kernel group when that
// frame is a crossbow/internal/tensor function of the group.
const tensorPkg = "crossbow/internal/tensor."

// kernelGroup classifies a tensor function name ("" for none of the groups).
func kernelGroup(fn string) string {
	if !strings.HasPrefix(fn, tensorPkg) {
		return ""
	}
	name := strings.ToLower(strings.TrimPrefix(fn, tensorPkg))
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(name, s) {
				return true
			}
		}
		return false
	}
	switch {
	case has("im2col"):
		return "im2col"
	case has("col2im"):
		return "col2im"
	case has("gemm", "pack", "micro", "epi", "scalec"):
		return "gemm"
	case has("accumadd", "relu", "axpy", "add", "scal", "sub", "copy", "zero", "average", "clip", "fill", "elem", "dot"):
		return "elementwise"
	}
	return ""
}

// cpuProfile records a CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each kernel group's share of all CPU
// samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	counts, total, err := groupSamples(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for g, c := range counts {
		if total > 0 {
			shares[g] = float64(c) / float64(total)
		}
	}
	return shares, nil
}

// setShares records the kernel-group shares as tensor.<group>_share.
func (r *run) setShares(shares map[string]float64) {
	for _, g := range []string{"im2col", "col2im", "gemm", "elementwise"} {
		r.set("tensor."+g+"_share", shares[g])
	}
}

// groupSamples decodes a gzipped pprof profile and sums its sample counts
// per kernel group, with the total over all samples.
func groupSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("decode CPU profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		if g := kernelGroup(prof.innermost(s.locations)); g != "" {
			counts[g] += n
		}
	}
	return counts, total, nil
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// innermost returns the name of the innermost frame of a stack that is not
// in the Go runtime.
func (p *profile) innermost(stack []uint64) string {
	for _, loc := range stack {
		for _, fid := range p.locations[loc] {
			idx := p.functions[fid]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name := p.strings[idx]
			if strings.HasPrefix(name, "runtime.") {
				continue
			}
			return name
		}
	}
	return ""
}

// decodeProfile decodes the fields of a profile.proto message the shares
// use: samples (2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locations = appendVarints(s.locations, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return walkFields(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of a protobuf message: varints pass
// their value, length-delimited fields their bytes.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and its length (0
// when b ends first).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
