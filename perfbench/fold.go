package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the layers a CPU profile is folded into
// (<layer>.cpu_share). Every repro/internal/<module> package maps to its
// module's layer (sim/shard to shard); the benchmark's own package is the
// load generator; gc is Go memory management (GC workers, assists,
// sweeping, allocation); http is the net/http stack with JSON and socket
// I/O; other is everything else, other internal modules included.
var cpuLayers = append(moduleLayers[:len(moduleLayers):len(moduleLayers)],
	"gc", "loadgen", "http", "other")

// moduleLayers are the repro/internal modules with a layer of their own.
var moduleLayers = []string{
	"pkt", "sim", "shard", "netsim", "ltl", "er", "shell", "dram",
	"kvcache", "rpcnic", "svclb", "frontend", "obs",
}

// gcFrames mark a sample as memory-management time wherever they sit on
// its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.mallocgc":       true,
	"runtime.gcStart":        true,
}

// httpPkgs are the standard-library packages folded into the http layer.
var httpPkgs = map[string]bool{
	"net/http": true, "net": true, "net/textproto": true, "net/url": true,
	"encoding/json": true, "bufio": true, "internal/poll": true,
	"mime": true,
}

// profiler collects a CPU profile of the benchmark process in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into per-layer CPU shares.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// layerOf maps one function name to its layer, or "" for a frame that
// does not decide (runtime and library helpers are charged to the
// nearest caller that does).
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod := strings.TrimPrefix(pkg, "repro/internal/")
		if mod == "sim/shard" {
			return "shard"
		}
		mod, _, _ = strings.Cut(mod, "/")
		for _, l := range moduleLayers {
			if l == mod {
				return l
			}
		}
		return "other"
	case pkg == "main":
		return "loadgen"
	case pkg == "repro":
		return "other"
	case httpPkgs[pkg]:
		return "http"
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/sim/shard.(*Group).step".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile attributes every sample of a gzipped pprof CPU profile to
// one layer: gc if a memory-management frame is on the stack, else the
// layer of the innermost frame that maps to one, else other. It returns
// each layer's share of total sampled CPU time.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	total := 0.0
	for _, s := range prof.samples {
		layer := ""
		for _, fn := range prof.stack(s.locs) {
			if gcFrames[fn] {
				layer = "gc"
				break
			}
			if layer == "" {
				layer = layerOf(fn)
			}
		}
		if layer == "" {
			layer = "other"
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples   []sample
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value (CPU nanoseconds)
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locLines[l] {
			if i := p.funcNames[f]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes the profile.proto fields the fold reads: sample
// (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(msg, func(n, w int, v uint64, m []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, m)
				case 2:
					vals = appendVarints(vals, w, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n, w int, v uint64, m []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(m, func(n2, w2 int, v2 uint64, _ []byte) error {
						if n2 == 1 {
							fns = append(fns, v2)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(msg, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("parse profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, msg []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// setCPUShares reports every layer's share, zero for layers the profile
// never sampled.
func setCPUShares(r *report, shares map[string]float64) {
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", shares[l], "share")
	}
}
