// Package dnsserver implements the measurement study's custom
// authoritative DNS server (§4.5 of the paper): instead of hosting the
// ~27.8 million static records the 39 test policies would require for
// the full MTA population, it synthesizes SPF, DKIM, and DMARC
// responses on the fly from the structure of the query name, applies
// per-policy response shaping (fixed delays, UDP truncation,
// IPv6-only service), and records a timestamped, attributed query log
// that constitutes the study's raw data.
package dnsserver

import (
	"sync"
	"time"

	"sendervalid/internal/dns"
)

// LogEntry is one observed query, attributed to the test policy and
// MTA that induced it via the identifying labels embedded in the query
// name (paper §4.4–4.5).
type LogEntry struct {
	// Time is the query's arrival timestamp at the server.
	Time time.Time
	// Name is the canonical query name.
	Name string
	// Type is the query type.
	Type dns.Type
	// TestID is the test-policy label extracted from the name, or "".
	TestID string
	// MTAID is the MTA/domain identifier extracted from the name, or "".
	MTAID string
	// Rest holds the labels left of the test-policy label,
	// leftmost first (e.g. ["l1"] for an included policy lookup).
	Rest []string
	// Transport is "udp" or "tcp".
	Transport string
	// OverIPv6 reports whether the query arrived at the server's IPv6
	// endpoint (the observable for the IPv6 test policy, §7.3).
	OverIPv6 bool
	// Remote is the querying resolver's address. Resolvers built on
	// dns.Client send from pooled sockets, so one port repeats across
	// many queries and does not identify a lookup.
	Remote string
}

// Sink consumes query-log entries. QueryLog is the in-memory
// implementation; AsyncLog decouples a slow sink (a disk writer) from
// the serving path.
type Sink interface {
	Append(LogEntry)
}

// QueryLog is a concurrency-safe, append-only query record.
type QueryLog struct {
	mu      sync.Mutex
	entries []LogEntry
}

// Append records one entry.
func (l *QueryLog) Append(e LogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
}

// Entries returns a snapshot of all entries in arrival order.
func (l *QueryLog) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LogEntry(nil), l.entries...)
}

// Since returns a snapshot of the entries appended after the first n
// — the tail-polling pattern (authdns's once-a-second printer) without
// re-copying the whole log every poll.
func (l *QueryLog) Since(n int) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n >= len(l.entries) {
		return nil
	}
	return append([]LogEntry(nil), l.entries[n:]...)
}

// forEach visits every entry in arrival order under the log's lock,
// stopping early when fn returns false. It exists so WriteJSON and
// the grouping helpers can stream a large log without the full-slice
// copy Entries makes; fn must not call back into the log.
func (l *QueryLog) forEach(fn func(*LogEntry) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.entries {
		if !fn(&l.entries[i]) {
			return
		}
	}
}

// Len returns the number of logged queries.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Reset discards all entries.
func (l *QueryLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = nil
}

// ByMTA groups a snapshot of the log by MTAID.
func (l *QueryLog) ByMTA() map[string][]LogEntry {
	out := make(map[string][]LogEntry)
	l.forEach(func(e *LogEntry) bool {
		if e.MTAID != "" {
			out[e.MTAID] = append(out[e.MTAID], *e)
		}
		return true
	})
	return out
}

// ByTest groups a snapshot of the log by TestID.
func (l *QueryLog) ByTest() map[string][]LogEntry {
	out := make(map[string][]LogEntry)
	l.forEach(func(e *LogEntry) bool {
		if e.TestID != "" {
			out[e.TestID] = append(out[e.TestID], *e)
		}
		return true
	})
	return out
}

// Filter returns the entries for which keep returns true.
func (l *QueryLog) Filter(keep func(LogEntry) bool) []LogEntry {
	var out []LogEntry
	l.forEach(func(e *LogEntry) bool {
		if keep(*e) {
			out = append(out, *e)
		}
		return true
	})
	return out
}
