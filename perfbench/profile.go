package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes a CPU profile to layers from outside the
// program. It reads the gzipped profile.proto that runtime/pprof writes with
// a minimal protobuf decoder (standard library only) and charges each
// sample's leaf frame to the layer that owns its function.

// layers lists the layer of every module under internal/ the simulator
// executes, then the Go runtime and a catch-all. A sample whose leaf frame
// is in any other package lands in "other", so the self times always sum to
// the profiled total.
var layers = []string{
	"sim", "noc", "nic", "notif", "coherence", "cache", "directory", "baseline",
	"mem", "trace", "system", "ring", "core", "bitset", "stats", "tile", "obs",
	"runtime", "other",
}

// allocFunc is the router's switch allocation; time spent under it (its
// callees included) is reported as noc.alloc_ms.
const allocFunc = "scorpio/internal/noc.(*Router).allocate"

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) string {
	const internal = "scorpio/internal/"
	if mod, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(mod, "/."); i >= 0 {
			mod = mod[:i]
		}
		for _, l := range layers {
			if l == mod {
				return l
			}
		}
		return "other"
	}
	// Go runtime, map internals (internal/runtime/maps), and the runtime
	// halves of sync and atomics.
	for _, p := range []string{"runtime.", "runtime/", "internal/", "sync.", "sync/atomic."} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// attribution is a profile's CPU time split by layer, two ways. selfNs
// charges each sample to its leaf frame's layer. ownerNs charges it to the
// innermost simulator layer on the stack, so runtime work (allocation,
// zeroing) counts against the layer that asked for it; a sample with no
// simulator frame keeps its leaf layer.
type attribution struct {
	selfNs, ownerNs map[string]int64
	allocNs         int64 // samples with allocFunc anywhere on the stack
	totalNs         int64
}

func (a *attribution) add(b attribution) {
	if a.selfNs == nil {
		a.selfNs, a.ownerNs = map[string]int64{}, map[string]int64{}
	}
	for l, ns := range b.selfNs {
		a.selfNs[l] += ns
	}
	for l, ns := range b.ownerNs {
		a.ownerNs[l] += ns
	}
	a.allocNs += b.allocNs
	a.totalNs += b.totalNs
}

// attribute decodes a gzipped CPU profile and splits its time by layer.
func attribute(gz []byte) (attribution, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	vi := -1
	for i, unit := range p.sampleUnits {
		if unit == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return attribution{}, errors.New("profile has no nanoseconds sample type")
	}
	a := attribution{selfNs: map[string]int64{}, ownerNs: map[string]int64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return attribution{}, errors.New("profile sample has too few values")
		}
		ns := s.values[vi]
		a.totalNs += ns
		leaf, owner := "", ""
		underAlloc := false
		for _, id := range s.locations {
			for _, f := range p.locations[id] {
				name := p.funcs[f]
				if leaf == "" {
					leaf = layerOf(name)
				}
				if l := layerOf(name); owner == "" && l != "runtime" && l != "other" {
					owner = l
				}
				underAlloc = underAlloc || name == allocFunc
			}
		}
		if leaf == "" {
			leaf = "other"
		}
		if owner == "" {
			owner = leaf
		}
		a.selfNs[leaf] += ns
		a.ownerNs[owner] += ns
		if underAlloc {
			a.allocNs += ns
		}
	}
	return a, nil
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	sampleUnits []string
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	funcs       map[uint64]string   // function id → name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeUnit = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	var unitIdx []uint64
	funcNames := map[uint64]uint64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			var unit uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeUnit {
					unit = v
				}
				return nil
			})
			unitIdx = append(unitIdx, unit)
			return err
		case profSample:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return repeated(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range unitIdx {
		unit, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleUnits = append(p.sampleUnits, unit)
	}
	for id, n := range funcNames {
		if p.funcs[id], err = str(n); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited bytes. Fixed-width fields,
// which profile.proto does not use in the parts read here, are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// (b == nil) or a packed run of varints.
func repeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
