package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostContext identifies where and on what a result was measured.
// compare refuses to pair results whose NProc, GOMAXPROCS or GoVersion
// differ: such numbers are not comparable, so neither a pass nor a
// fail would mean anything.
type hostContext struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	// Commit is the git commit when the tree is a checkout with .git,
	// "unknown" otherwise; Source is a digest of the Go sources built,
	// which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func collectHostContext(root string, seed int64) hostContext {
	return hostContext{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (no git process).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == name {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (skipping
// hidden and build directories) in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's peak resident set size in MB
// (VmHWM; ru_maxrss as a fallback).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// usage is a point-in-time reading of the process's resource counters;
// the difference of two readings measures the span between them.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of the whole process
	gcCPU      float64       // runtime-estimated GC CPU seconds
	allocBytes uint64
	gcCycles   uint64
	sched      *metrics.Float64Histogram
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

func readUsage() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		u.gcCycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		u.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return u
}

// span is the difference between two usage readings.
type span struct {
	wall, cpu  time.Duration
	gcCPU      float64
	allocBytes uint64
	gcCycles   uint64
	// schedP99 is the 99th percentile goroutine scheduling latency
	// over the span, in seconds (bucket upper bound).
	schedP99 float64
}

func (a usage) to(b usage) span {
	s := span{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		gcCPU:      b.gcCPU - a.gcCPU,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		s.schedP99 = histQuantile(a.sched, b.sched, 0.99)
	}
	return s
}

// meter accumulates usage, and the CPU profile when one is taken,
// over the timed parts of a round.
type meter struct {
	prof  *profiler
	total span
	start usage
}

func (m *meter) begin() {
	m.prof.resume()
	m.start = readUsage()
}

func (m *meter) end() time.Duration {
	s := m.start.to(readUsage())
	m.prof.pause()
	m.total.wall += s.wall
	m.total.cpu += s.cpu
	m.total.gcCPU += s.gcCPU
	m.total.allocBytes += s.allocBytes
	m.total.gcCycles += s.gcCycles
	m.total.schedP99 = max(m.total.schedP99, s.schedP99)
	return s.wall
}

// profiler collects a runtime/pprof CPU profile over the timed parts
// of rounds only, so set-up, teardown and the oracle checks do not
// dilute the module shares. A nil profiler is off.
type profiler struct {
	buf     bytes.Buffer
	samples []stackSample
	err     error // the first failure
}

func (p *profiler) resume() {
	if p == nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *profiler) pause() {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(p.buf.Bytes())
	if err != nil && p.err == nil {
		p.err = err
	}
	p.samples = append(p.samples, samples...)
}

// histQuantile returns the q-quantile of the observations added to a
// runtime/metrics histogram between readings a and b, as the upper
// bound of the bucket holding it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i, n := range diff {
		seen += n
		if seen > want {
			if ub := b.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}
