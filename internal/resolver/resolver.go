// Package resolver implements the stub DNS resolver used by simulated
// mail transfer agents. It speaks to a single upstream (recursive or
// authoritative) server over UDP with automatic TCP retry on
// truncation, supports IPv4-only, IPv6-only, and dual-stack transport
// policies, and keeps a positive/negative cache.
//
// The resolver satisfies the spf.Resolver contract: lookups that
// complete with no records (NXDOMAIN or an empty answer) return
// (nil, nil); transport and server failures return errors.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"syscall"
	"time"

	"sendervalid/internal/dns"
	"sendervalid/internal/spf"
	"sendervalid/internal/telemetry"
	"sendervalid/internal/trace"
)

// TransportPolicy selects the address families the resolver may use to
// reach its upstream server.
type TransportPolicy int

// Transport policies.
const (
	// DualStack tries the upstream over whichever family its address
	// uses; both IPv4 and IPv6 upstreams are usable.
	DualStack TransportPolicy = iota
	// IPv4Only refuses IPv6 upstream addresses. Resolvers behind such
	// a policy cannot retrieve policies served only on IPv6 — the
	// behaviour the paper's IPv6 test policy detects (§7.3).
	IPv4Only
	// IPv6Only refuses IPv4 upstream addresses.
	IPv6Only
)

// ServerError reports a non-success RCODE from the upstream server.
// NXDOMAIN is not a ServerError; it is an empty result.
type ServerError struct {
	Name  string
	RCode dns.RCode
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("resolver: %s for %s", e.RCode, e.Name)
}

// Config configures a Resolver.
type Config struct {
	// Server is the upstream address ("ip:port"). For a dual-homed
	// upstream, Server6 optionally carries the IPv6 endpoint.
	Server string
	// Server6 is the upstream's IPv6 endpoint, used under IPv6Only or
	// DualStack when set.
	Server6 string
	// Transport restricts address families.
	Transport TransportPolicy
	// Timeout bounds one exchange. Zero means 5 seconds.
	Timeout time.Duration
	// DisableTCP prevents the TCP retry after a truncated UDP
	// response. The paper found only 2 of 1336 resolvers with this
	// defect (§7.3).
	DisableTCP bool
	// DisableCache turns off response caching and, with it, in-flight
	// query deduplication: configurations that disable the cache (the
	// wire-behaviour ablations) want every lookup observable on the
	// wire.
	DisableCache bool
	// MaxCacheEntries bounds the cache. Zero means 4096.
	MaxCacheEntries int
	// NegativeTTL is the cache lifetime for results with no records
	// (NXDOMAIN or an empty answer). Zero means DefaultNegativeTTL;
	// negative disables negative caching.
	NegativeTTL time.Duration
	// MaxRetries is how many times a query is re-sent after a
	// transport failure — a timeout, a connection reset mid-message, a
	// truncated/short TCP read — before the error is surfaced. Server
	// failures (non-success RCODEs) are never retried. Zero means 2;
	// negative disables retries.
	MaxRetries int
	// Dialer, when set, overrides socket creation (used to route
	// queries through a simulated network fabric).
	Dialer dns.Dialer
}

// Resolver is a caching stub resolver bound to one upstream server.
// It is safe for concurrent use: the response cache is sharded with
// per-shard read/write locks, and concurrent identical queries are
// collapsed into one wire exchange by a singleflight group (see
// flightGroup), so bulk SPF evaluation scales with cores instead of
// serializing on one cache mutex.
type Resolver struct {
	cfg    Config
	client *dns.Client

	metrics resolverMetrics

	cache  *shardedCache
	flight flightGroup
}

// DefaultNegativeTTL is how long empty results (NXDOMAIN or no
// records) stay cached when Config.NegativeTTL is zero.
const DefaultNegativeTTL = 30 * time.Second

// New creates a Resolver from cfg.
func New(cfg Config) *Resolver {
	if cfg.MaxCacheEntries == 0 {
		cfg.MaxCacheEntries = 4096
	}
	r := &Resolver{
		cfg: cfg,
		client: &dns.Client{
			Timeout:            cfg.Timeout,
			Dialer:             cfg.Dialer,
			DisableTCPFallback: cfg.DisableTCP,
		},
		cache: newShardedCache(cfg.MaxCacheEntries),
	}
	r.metrics.wireSeconds = telemetry.NewHistogram(telemetry.LatencyBuckets)
	r.metrics.waitSeconds = telemetry.NewHistogram(telemetry.LatencyBuckets)
	return r
}

// server picks the upstream endpoint honouring the transport policy.
func (r *Resolver) server() (string, error) {
	v4, v6 := r.cfg.Server, r.cfg.Server6
	if v4 != "" && isV6HostPort(v4) {
		v4, v6 = "", v4
	}
	switch r.cfg.Transport {
	case IPv4Only:
		if v4 == "" {
			return "", fmt.Errorf("resolver: upstream reachable only over IPv6 under IPv4-only policy")
		}
		return v4, nil
	case IPv6Only:
		if v6 == "" {
			return "", fmt.Errorf("resolver: upstream reachable only over IPv4 under IPv6-only policy")
		}
		return v6, nil
	default:
		if v4 != "" {
			return v4, nil
		}
		if v6 != "" {
			return v6, nil
		}
		return "", fmt.Errorf("resolver: no upstream server configured")
	}
}

// isV6HostPort reports whether hostport has a bracketed IPv6 host.
func isV6HostPort(hostport string) bool {
	return strings.HasPrefix(hostport, "[")
}

// Exchange resolves (name, t) against the upstream, consulting the
// cache first. Concurrent identical queries share one wire exchange
// (singleflight): the first caller leads, later callers wait for its
// result. A waiter whose context is cancelled returns promptly while
// the exchange itself keeps running under a flight-owned context and
// still populates the cache. Transport failures — timeouts, resets,
// short TCP reads from a dying connection — are retried up to
// MaxRetries times, so the faults a hostile network injects between
// the stub and its upstream do not surface as measurement noise;
// non-success RCODEs are surfaced immediately and never cached.
func (r *Resolver) Exchange(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	name = dns.CanonicalName(name)
	key := cacheKey{name: name, typ: t}
	r.metrics.queries.Inc()
	ctx, sp := trace.Start(ctx, "resolver.exchange")
	if sp != nil {
		sp.SetAttr("dns.name", name)
		sp.SetAttr("dns.type", t.String())
	}
	if r.cfg.DisableCache {
		// No cache means no flight either: a deduplicated answer is a
		// momentary cache, and cache-disabled configurations exist to
		// make every lookup observable at the server.
		began := time.Now()
		msg, err := r.exchangeWithRetry(ctx, name, t)
		r.metrics.observeWire(time.Since(began).Seconds(), sp.ExemplarID())
		sp.SetError(err)
		sp.End()
		return msg, err
	}
	if msg, ok := r.cache.get(key, time.Now()); ok {
		r.metrics.cacheHits.Inc()
		sp.SetAttr("outcome", "cache")
		sp.End()
		return msg, nil
	}
	if err := ctx.Err(); err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	c, leader := r.flight.join(key)
	if leader {
		r.metrics.sfLeader.Inc()
		sp.SetAttr("singleflight", "leader")
		go r.lead(key, c, name, t, sp.Link())
	} else {
		r.metrics.sfShared.Inc()
		sp.SetAttr("singleflight", "waiter")
	}
	// Wire time is attributed once, by the leader goroutine, to
	// resolver_wire_seconds; a waiter records only how long it waited
	// on someone else's exchange, in resolver_wait_seconds. Summing
	// the two families therefore never double-counts an exchange.
	waitStart := time.Now()
	select {
	case <-c.done:
		if !leader {
			r.metrics.observeWait(time.Since(waitStart).Seconds(), sp.ExemplarID())
		}
		sp.SetError(c.err)
		sp.End()
		return c.msg, c.err
	case <-ctx.Done():
		r.flight.leave(c)
		if !leader {
			r.metrics.observeWait(time.Since(waitStart).Seconds(), sp.ExemplarID())
		}
		sp.SetError(ctx.Err())
		sp.End()
		return nil, ctx.Err()
	}
}

// lead performs a flight's wire exchange under the flight-owned
// context, caches a successful response, and publishes the outcome to
// every waiter. Leader errors are not cached: the next caller after
// finish starts a fresh flight. link carries the leading Exchange
// span's identity (a value snapshot — the span itself may already be
// recycled by the time this goroutine runs).
func (r *Resolver) lead(key cacheKey, c *flightCall, name string, t dns.Type, link trace.Link) {
	wsp := link.Start("resolver.wire")
	if wsp != nil {
		wsp.SetAttr("dns.name", name)
		wsp.SetAttr("dns.type", t.String())
	}
	began := time.Now()
	msg, err := r.exchangeWithRetry(c.ctx, name, t)
	r.metrics.observeWire(time.Since(began).Seconds(), wsp.ExemplarID())
	wsp.SetError(err)
	wsp.End()
	if err == nil {
		if ttl, ok := r.ttlFor(msg); ok {
			r.cache.put(key, msg, time.Now().Add(ttl))
		}
	}
	r.flight.finish(key, c, msg, err)
}

// exchangeWithRetry is the wire path: one exchange plus the
// transport-fault retry loop.
func (r *Resolver) exchangeWithRetry(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	retries := r.cfg.MaxRetries
	switch {
	case retries == 0:
		retries = 2
	case retries < 0:
		retries = 0
	}
	var resp *dns.Message
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = r.exchangeOnce(ctx, name, t)
		if err == nil {
			break
		}
		if isTimeout(err) {
			r.metrics.timeouts.Inc()
		}
		if ctx.Err() != nil || attempt >= retries || !retryable(err) {
			return nil, err
		}
		r.metrics.retries.Inc()
	}
	switch resp.RCode {
	case dns.RCodeSuccess, dns.RCodeNameError:
	default:
		return nil, &ServerError{Name: name, RCode: resp.RCode}
	}
	return resp, nil
}

// ttlFor returns how long msg may be cached. Empty results use the
// negative-caching TTL; the false return means "do not cache".
func (r *Resolver) ttlFor(msg *dns.Message) (time.Duration, bool) {
	if len(msg.Answers) == 0 {
		switch ttl := r.cfg.NegativeTTL; {
		case ttl < 0:
			return 0, false
		case ttl > 0:
			return ttl, true
		}
		return DefaultNegativeTTL, true
	}
	return minTTL(msg), true
}

// exchangeOnce performs one full query round, including the IPv6
// endpoint fallback.
func (r *Resolver) exchangeOnce(ctx context.Context, name string, t dns.Type) (*dns.Message, error) {
	server, err := r.server()
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Query(ctx, server, name, t)
	if err != nil {
		return nil, err
	}
	if resp.RCode == dns.RCodeRefused && r.cfg.Server6 != "" &&
		server != r.cfg.Server6 && r.cfg.Transport != IPv4Only {
		// The name may be served only on the upstream's IPv6 endpoint
		// (the paper's IPv6 test policy publishes AAAA-only name
		// servers). A v6-capable resolver retries there; an IPv4-only
		// resolver cannot and fails.
		resp, err = r.client.Query(ctx, r.cfg.Server6, name, t)
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// RetryCount returns the number of transport-level query retries the
// resolver has performed.
func (r *Resolver) RetryCount() uint64 { return r.metrics.retries.Value() }

// retryable classifies an exchange error as a transient transport
// fault worth re-sending the query for: deadline expiry, refused or
// reset connections, and short reads from a connection that died
// mid-message (io.EOF / io.ErrUnexpectedEOF out of the TCP framing
// layer). Everything else — packing errors, configuration errors —
// is surfaced immediately.
func retryable(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}

// CacheLen returns the number of cached responses, including expired
// entries not yet reclaimed by capacity-time eviction.
func (r *Resolver) CacheLen() int { return r.cache.len() }

// CacheShards returns the number of cache shards.
func (r *Resolver) CacheShards() int { return len(r.cache.shards) }

// FlushCache drops all cached responses.
func (r *Resolver) FlushCache() { r.cache.flush() }

// minTTL returns the smallest answer TTL, clamped to [1s, 1h]; empty
// (negative) answers are cached briefly.
func minTTL(msg *dns.Message) time.Duration {
	if len(msg.Answers) == 0 {
		return 30 * time.Second
	}
	min := uint32(3600)
	for _, rr := range msg.Answers {
		if rr.TTL < min {
			min = rr.TTL
		}
	}
	if min == 0 {
		min = 1
	}
	return time.Duration(min) * time.Second
}

// answers returns the answer records of the given type whose owner
// matches name, following CNAME chains within the response.
func answers(msg *dns.Message, name string, t dns.Type) []dns.RR {
	name = dns.CanonicalName(name)
	// Follow in-response CNAMEs (bounded by the answer count).
	for range msg.Answers {
		redirected := false
		for _, rr := range msg.Answers {
			if rr.Type == dns.TypeCNAME && dns.EqualNames(rr.Name, name) {
				name = dns.CanonicalName(rr.Data.(*dns.CNAME).Target)
				redirected = true
				break
			}
		}
		if !redirected {
			break
		}
	}
	var out []dns.RR
	for _, rr := range msg.Answers {
		if rr.Type == t && dns.EqualNames(rr.Name, name) {
			out = append(out, rr)
		}
	}
	return out
}

// LookupTXT implements spf.Resolver.
func (r *Resolver) LookupTXT(ctx context.Context, name string) ([]string, error) {
	msg, err := r.Exchange(ctx, name, dns.TypeTXT)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range answers(msg, name, dns.TypeTXT) {
		out = append(out, rr.Data.(*dns.TXT).Joined())
	}
	return out, nil
}

// LookupA implements spf.Resolver.
func (r *Resolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	msg, err := r.Exchange(ctx, name, dns.TypeA)
	if err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, rr := range answers(msg, name, dns.TypeA) {
		out = append(out, rr.Data.(*dns.A).Addr)
	}
	return out, nil
}

// LookupAAAA implements spf.Resolver.
func (r *Resolver) LookupAAAA(ctx context.Context, name string) ([]netip.Addr, error) {
	msg, err := r.Exchange(ctx, name, dns.TypeAAAA)
	if err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, rr := range answers(msg, name, dns.TypeAAAA) {
		out = append(out, rr.Data.(*dns.AAAA).Addr)
	}
	return out, nil
}

// LookupMX implements spf.Resolver.
func (r *Resolver) LookupMX(ctx context.Context, name string) ([]spf.MXRecord, error) {
	msg, err := r.Exchange(ctx, name, dns.TypeMX)
	if err != nil {
		return nil, err
	}
	var out []spf.MXRecord
	for _, rr := range answers(msg, name, dns.TypeMX) {
		mx := rr.Data.(*dns.MX)
		out = append(out, spf.MXRecord{Preference: mx.Preference, Host: mx.Host})
	}
	return out, nil
}

// LookupPTR implements spf.Resolver.
func (r *Resolver) LookupPTR(ctx context.Context, ip netip.Addr) ([]string, error) {
	name := ReverseName(ip)
	msg, err := r.Exchange(ctx, name, dns.TypePTR)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range answers(msg, name, dns.TypePTR) {
		out = append(out, rr.Data.(*dns.PTR).Target)
	}
	return out, nil
}

// ReverseName returns the in-addr.arpa or ip6.arpa name for ip.
func ReverseName(ip netip.Addr) string {
	if ip.Is4() || ip.Is4In6() {
		a4 := ip.Unmap().As4()
		return fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa.", a4[3], a4[2], a4[1], a4[0])
	}
	raw := ip.As16()
	var sb strings.Builder
	for i := 15; i >= 0; i-- {
		fmt.Fprintf(&sb, "%x.%x.", raw[i]&0xF, raw[i]>>4)
	}
	sb.WriteString("ip6.arpa.")
	return sb.String()
}
