package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"sendervalid/internal/trace"
)

// spanBuffer is the tracer's Output during a traced run: it keeps every
// exported record in memory (the exporter calls Write once per record,
// from one goroutine) so the tracer never touches disk while measuring.
type spanBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// records decodes the buffered span stream.
func (b *spanBuffer) records() ([]trace.Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var recs []trace.Record
	data := b.buf.Bytes()
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		r, err := trace.ParseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("decoding span record: %w", err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// writeFile writes the buffered span stream out (JSONL, readable by
// analyze -trace).
func (b *spanBuffer) writeFile(path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return os.WriteFile(path, b.buf.Bytes(), 0o644)
}

// spanStats aggregates a span stream by span name.
type spanStats struct {
	// count and self are per name: spans seen and their summed self
	// time (duration minus the union of their children's intervals).
	count map[string]int
	self  map[string]time.Duration
	// durs keeps each name's individual durations for percentiles.
	durs map[string][]float64
}

// analyzeSpans computes per-name counts, durations and self times.
// Only head-sampled spans count (Why == ""): spans promoted for being
// slow or errored are a biased sample. A child is any record naming
// the span as parent — including children started from another
// goroutine through trace.Link — and each child interval is clipped to
// its parent's before the union is taken, so overlapping or
// overhanging children are never subtracted twice.
func analyzeSpans(recs []trace.Record) spanStats {
	st := spanStats{
		count: map[string]int{},
		self:  map[string]time.Duration{},
		durs:  map[string][]float64{},
	}
	type interval struct{ start, end time.Time }
	children := make(map[string][]interval)
	for i := range recs {
		r := &recs[i]
		if r.Parent == "" || r.Why != "" {
			continue
		}
		key := r.Trace + "/" + r.Parent
		children[key] = append(children[key], interval{r.Start, r.Start.Add(time.Duration(r.DurUS) * time.Microsecond)})
	}
	for i := range recs {
		r := &recs[i]
		if r.Why != "" {
			continue
		}
		dur := time.Duration(r.DurUS) * time.Microsecond
		start, end := r.Start, r.Start.Add(dur)
		kids := children[r.Trace+"/"+r.Span]
		clipped := make([]interval, 0, len(kids))
		for _, k := range kids {
			if k.start.Before(start) {
				k.start = start
			}
			if k.end.After(end) {
				k.end = end
			}
			if k.end.After(k.start) {
				clipped = append(clipped, k)
			}
		}
		sort.Slice(clipped, func(a, b int) bool { return clipped[a].start.Before(clipped[b].start) })
		var covered time.Duration
		var cur interval
		for j, k := range clipped {
			switch {
			case j == 0:
				cur = k
			case !k.start.After(cur.end):
				if k.end.After(cur.end) {
					cur.end = k.end
				}
			default:
				covered += cur.end.Sub(cur.start)
				cur = k
			}
		}
		if len(clipped) > 0 {
			covered += cur.end.Sub(cur.start)
		}
		st.count[r.Name]++
		st.self[r.Name] += dur - covered
		st.durs[r.Name] = append(st.durs[r.Name], float64(r.DurUS))
	}
	return st
}
