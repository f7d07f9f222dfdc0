package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes host cost to the simulator's layers from two
// profiles the benchmark records itself: CPU samples and allocated bytes.
// A profile is the gzipped profile.proto runtime/pprof writes; the
// decoder below reads only the fields the ledger needs.

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames included), and its value of the chosen type.
type profSample struct {
	stack []string
	value int64
}

// parseProfile decodes a gzipped pprof profile and returns the samples'
// values of sample type valueType (such as "cpu" or "alloc_space").
func parseProfile(gz []byte, valueType string) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		types     [][2]uint64 // (type, unit) string indexes
		samples   []sample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		functions = map[uint64]uint64{}   // function id -> name string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, p)
				case 2:
					s.vals = appendPacked(s.vals, v, p)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	col := -1
	for i, t := range types {
		if str(t[0]) == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", valueType)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, errors.New("profile: sample without a value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				stack = append(stack, str(functions[fn]))
			}
		}
		out = append(out, profSample{stack: stack, value: int64(s.vals[col])})
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its scalar value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var p []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, p); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one
// unpacked value (p nil) or a packed run.
func appendPacked(dst []uint64, v uint64, p []byte) []uint64 {
	if p == nil {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// groups are the ledger's layers in report order. Every sample lands in
// exactly one, so a profile's shares sum to 100.
var groups = []string{
	"rng", "simtime.sched", "simtime.lines", "simtime.ticks",
	"mobility", "topology", "netsim",
	"multitier", "mobileip", "cellularip", "auth",
	"hooks", "core",
	"runtime.gc", "runtime.malloc", "runtime.maps", "runtime.other",
	"other",
}

// packageGroups maps a simulator package to its layer.
var packageGroups = map[string]string{
	"repro/internal/mobility":    "mobility",
	"repro/internal/topology":    "topology",
	"repro/internal/radio":       "topology",
	"repro/internal/geo":         "topology",
	"repro/internal/netsim":      "netsim",
	"repro/internal/packet":      "netsim",
	"repro/internal/addr":        "netsim",
	"repro/internal/multitier":   "multitier",
	"repro/internal/rsmc":        "multitier",
	"repro/internal/qos":         "multitier",
	"repro/internal/mobileip":    "mobileip",
	"repro/internal/cellularip":  "cellularip",
	"repro/internal/auth":        "auth",
	"repro/internal/obs":         "hooks",
	"repro/internal/degrade":     "hooks",
	"repro/internal/faults":      "hooks",
	"repro/internal/core":        "core",
	"repro/internal/fleet":       "core",
	"repro/internal/capacity":    "core",
	"repro/internal/traffic":     "core",
	"repro/internal/metrics":     "core",
	"repro/internal/runner":      "core",
	"repro/internal/experiments": "core",
}

// cumTargets are the functions whose cumulative share (samples with the
// function anywhere on the stack) the ledger reports. A renamed target
// reads 0 until the benchmark names it again.
var cumTargets = []struct{ metric, fn string }{
	{"rng.seed", "math/rand.(*rngSource).Seed"},
	{"mobility.track", "repro/internal/mobility.(*segmentTrack).ensure"},
	{"netsim.deliver", "repro/internal/netsim.(*Network).deliver"},
	{"auth.mac", "repro/internal/auth.(*Authenticator).mac"},
}

// packageOf strips the symbol from a function name:
// "repro/internal/simtime.(*Rand).source" -> "repro/internal/simtime".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// gcFrames mark a stack as garbage-collector work wherever its leaf is.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.deductSweepCredit", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	"runtime.GC",
}

func onStack(stack []string, prefixes ...string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// groupOf assigns a sample to a layer by its leaf frame. A runtime leaf
// splits by what it serves (collection, allocation, maps, the rest) and
// math/rand is the rng layer; any other standard-library leaf (crypto,
// sort, math, fmt, ...) is charged to the nearest simulator frame that
// called it, so HMAC work lands in auth. A stack with no simulator frame
// (the benchmark harness, the profiler itself) is "other".
func groupOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case isRuntime(leaf):
		switch {
		case onStack(stack, gcFrames...):
			return "runtime.gc"
		case onStack(stack, "runtime.mallocgc", "runtime.growslice"):
			return "runtime.malloc"
		case strings.HasPrefix(leaf, "internal/runtime/maps.") || strings.HasPrefix(leaf, "runtime.map") ||
			strings.Contains(leaf, "hash"):
			return "runtime.maps"
		}
		return "runtime.other"
	case strings.HasPrefix(leaf, "math/rand."):
		return "rng"
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg == "repro/internal/simtime" {
			return simtimeGroup(fn)
		}
		if g, ok := packageGroups[pkg]; ok {
			return g
		}
		if isRuntime(fn) {
			break
		}
	}
	return "other"
}

// simtimeGroup splits the engine package: rng streams, delay lines, tick
// groups, and the event heap with everything else the scheduler does.
func simtimeGroup(fn string) string {
	sym := strings.TrimPrefix(fn, "repro/internal/simtime.")
	switch {
	case strings.HasPrefix(sym, "(*Rand)") || strings.HasPrefix(sym, "NewRand"):
		return "rng"
	case strings.HasPrefix(sym, "(*delayLine)") || strings.HasPrefix(sym, "(*Scheduler).AfterFIFO") ||
		strings.HasPrefix(sym, "(*Scheduler).line"):
		return "simtime.lines"
	case strings.HasPrefix(sym, "(*tickGroup)") || strings.HasPrefix(sym, "(*Ticker)") ||
		strings.HasPrefix(sym, "(*Scheduler).Every") || strings.HasPrefix(sym, "(*Scheduler).group"):
		return "simtime.ticks"
	}
	return "simtime.sched"
}

// shares turns a profile into the ledger: each layer's percentage of the
// total value (suffix names the kind, as in "cpu_pct"), plus the
// cumulative percentage of each cumTargets function when cum is set.
func shares(samples []profSample, suffix string, cum bool) map[string]float64 {
	byGroup := map[string]int64{}
	byTarget := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		byGroup[groupOf(s.stack)] += s.value
		if !cum {
			continue
		}
		for _, t := range cumTargets {
			for _, fn := range s.stack {
				if fn == t.fn {
					byTarget[t.metric] += s.value
					break
				}
			}
		}
	}
	out := map[string]float64{}
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	for _, g := range groups {
		out[g+"."+suffix] = pct(byGroup[g])
	}
	if cum {
		for _, t := range cumTargets {
			out[t.metric+".cum_pct"] = pct(byTarget[t.metric])
		}
	}
	return out
}
