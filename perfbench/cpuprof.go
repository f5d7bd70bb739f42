package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import path prefix of the code under test.
const modulePrefix = "statefulentities.dev/stateflow/internal/"

// cpuModules are the layers CPU time is attributed to. A profile sample
// is charged to the innermost frame inside the module; samples whose
// stack has no module frame are charged to "runtime", and frames in
// module packages outside this list to "other".
var cpuModules = []string{
	"sim", "systems/stateflow", "txn/aria", "dlog", "state", "snapshot",
	"interp", "core", "obs", "runtime", "other",
}

// moduleOf maps a function name from a profile to its layer, or "" when
// the function is outside the module.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.' after its last '/'.
	pkg := rest
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	for _, m := range cpuModules {
		if pkg == m {
			return m
		}
	}
	return "other"
}

// moduleShares decodes a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time.
func moduleShares(profile []byte) (map[string]float64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	byModule := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if m := moduleOf(p.functions[fn]); m != "" {
					mod = m
					break frames
				}
			}
		}
		byModule[mod] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = float64(byModule[m]) / float64(total)
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // CPU nanoseconds (the last sample value)
}

// decodeProfile reads the fields of the pprof protobuf encoding
// (github.com/google/pprof/proto/profile.proto) that moduleShares uses.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string table index
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []int64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, b, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcName {
		if idx < 0 || idx >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		buf = buf[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(buf) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			buf = buf[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // fixed32
			if len(buf) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (b != nil) or not.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
