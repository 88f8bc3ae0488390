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

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark needs only each sample's CPU value and the function
// names on its stack, so it decodes just those fields with a minimal
// protobuf reader instead of depending on the pprof library.
//
//	Profile:  1 sample_type  2 sample  4 location  5 function  6 string_table
//	Sample:   1 location_id (packed)  2 value (packed)
//	Location: 1 id  4 line
//	Line:     1 function_id
//	Function: 1 id  2 name (string index)

// stackSample is one decoded profile sample: its value (CPU
// nanoseconds) and the function names on its stack, leaf first, with
// inlined frames expanded innermost first.
type stackSample struct {
	value int64
	funcs []string
}

// decodeCPUProfile parses a gzipped CPU profile into stack samples.
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		valueSlot = -1
		nTypes    = 0
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2:
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					for _, x := range appendVarints(nil, w, v, pb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry two sample types, samples/count and
	// cpu/nanoseconds; the last is the CPU time.
	valueSlot = nTypes - 1
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueSlot < 0 || valueSlot >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		ss := stackSample{value: s.values[valueSlot]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if idx := funcName[fn]; int(idx) < len(strs) {
					name = strs[idx]
				}
				ss.funcs = append(ss.funcs, name)
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message,
// passing varint values as v and length-delimited payloads as b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "sendervalid/internal/"

// benchPrefixes prefix the benchmark's own functions: package main in
// the binary, its import path in the test binary.
var benchPrefixes = []string{"main.", "sendervalid/perfbench."}

// gcFuncs and mallocFuncs are the runtime frames that mark a sample as
// garbage collection or allocation when no repository frame lies
// between them and the leaf.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.scanobject", "runtime.markroot", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
	"runtime.sweepone", "runtime.greyobject", "runtime.scanstack",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier",
}

var mallocFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.newarray",
	"runtime.rawstring", "runtime.rawbyteslice", "runtime.rawruneslice",
	"runtime.slicebytetostring", "runtime.concatstring",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if s == p || strings.HasPrefix(s, p+".") || strings.HasPrefix(s, p+"_") {
			return true
		}
	}
	return false
}

// foldByModule attributes each sample's value to one module (see
// cpuModules) and returns each module's share of the total.
func foldByModule(samples []stackSample) map[string]float64 {
	totals := map[string]int64{}
	var all int64
	for _, s := range samples {
		totals[classifyStack(s.funcs)] += s.value
		all += s.value
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = ratio(float64(totals[m]), float64(all))
	}
	return out
}

// classifyStack picks the module a stack (leaf first) is charged to:
// GC or malloc when those runtime frames come before any repository
// frame, otherwise the innermost repository frame's package, with dns
// split into client and server.
func classifyStack(funcs []string) string {
	for i, f := range funcs {
		switch {
		case hasPrefixAny(f, gcFuncs):
			return "runtime.gc"
		case hasPrefixAny(f, mallocFuncs):
			return "runtime.malloc"
		case strings.HasPrefix(f, benchPrefixes[0]) || strings.HasPrefix(f, benchPrefixes[1]):
			return "bench"
		case strings.HasPrefix(f, modulePrefix):
			pkg := packageOf(f)
			if pkg == "dns" {
				return dnsSide(funcs[i:])
			}
			return pkg
		}
	}
	return "other"
}

// packageOf returns the package name of a sendervalid/internal/<pkg>.
// function name.
func packageOf(f string) string {
	rest := strings.TrimPrefix(f, modulePrefix)
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// dnsSide splits dns-package time by receiver: the first frame walking
// outwards that belongs to the client (Client methods, the exchange
// helpers) or the server (Server methods, response writers) decides;
// shared code (message packing, names, pools) is charged to whichever
// side called it. With no decisive dns frame, a dnsserver or policy
// caller means server, anything else client.
func dnsSide(funcs []string) string {
	for _, f := range funcs {
		if !strings.HasPrefix(f, modulePrefix) {
			continue
		}
		pkg := packageOf(f)
		if pkg != "dns" {
			if pkg == "dnsserver" || pkg == "policy" {
				return "dns.server"
			}
			return "dns.client"
		}
		name := strings.TrimPrefix(f, modulePrefix+"dns.")
		switch {
		case strings.HasPrefix(name, "(*Client)"), strings.HasPrefix(name, "exchange"):
			return "dns.client"
		case strings.HasPrefix(name, "(*Server)"), strings.Contains(name, "ResponseWriter"),
			strings.HasPrefix(name, "(*sourceCache)"), strings.HasPrefix(name, "(*RateLimiter)"),
			strings.HasPrefix(name, "(*serverMetrics)"), strings.HasPrefix(name, "(*Request)"),
			strings.HasPrefix(name, "HandlerFunc"):
			return "dns.server"
		}
	}
	return "dns.client"
}
