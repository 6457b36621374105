package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// cpuModules are the modules the profile attributes CPU time to, by
// their cpu.<module>_s metric: the layers, the traffic generators' rng
// and workload packages, then gc (a GC worker or assist on the stack),
// harness (the benchmark's own code), runtime (no df3 frame at all) and
// other (any df3 package not listed).
var cpuModules = []string{
	"sim", "network", "core", "sched", "thermal", "regulator", "server", "power", "weather",
	"shard", "wire", "city", "api", "checkpoint", "metrics", "rng", "workload",
	"gc", "harness", "runtime", "other",
}

// stop ends the profile and records cpu.<module>_s for every module.
func (p *cpuProfile) stop(r *report) error {
	pprof.StopCPUProfile()
	byModule, samples, err := attributeProfile(&p.buf)
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		r.set("cpu."+m+"_s", byModule[m], samples)
	}
	return nil
}

// gcFrames mark a stack as garbage-collector work wherever it runs.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// moduleOf maps one stack, leaf first, to the module its CPU time
// belongs to: the innermost df3 frame's module, so runtime work a layer
// calls (allocation, maps, syscalls) is charged to that layer. The
// harness's wrappers around Parts and connections sit between a layer
// and its syscalls, so harness frames count only on stacks no df3
// module appears on.
func moduleOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
		harness = harness || strings.HasPrefix(fn, "main.")
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "df3/internal/")
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(mod, "/."); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	if harness {
		return "harness"
	}
	return "runtime"
}

// attributeProfile decodes a gzipped profile.proto CPU profile and sums
// each sample's CPU seconds by module. It reads only the fields it needs:
// samples (location ids, values), locations (lines), functions (names)
// and the string table.
func attributeProfile(r io.Reader) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbPacked(s.locs, v, b)
				case 2:
					for _, x := range pbPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[moduleOf(stack)] += float64(s.values[1]) / 1e9 // values: [count, cpu ns]
	}
	return out, len(samples), nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d in field %d", wt, field)
		}
	}
	return nil
}

// pbPacked appends a repeated varint field's values, whether it arrived
// packed (b set) or as a single varint (v).
func pbPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
