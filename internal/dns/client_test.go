package dns

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sendervalid/internal/netsim"
)

// startRawUpstream listens on an ephemeral loopback UDP port and hands
// every datagram to serve, which answers through pc. pkt is only valid
// during the call. The socket closes and the reader exits at cleanup.
func startRawUpstream(t testing.TB, serve func(pc *net.UDPConn, pkt []byte, from netip.AddrPort)) string {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			serve(pc, buf[:n], from)
		}
	}()
	t.Cleanup(func() {
		pc.Close()
		<-done
	})
	return pc.LocalAddr().String()
}

// txtReply packs a reply to q carrying one TXT record, after edit (if
// non-nil) has altered it.
func txtReply(t testing.TB, q *Message, payload string, edit func(*Message)) []byte {
	t.Helper()
	m := new(Message).SetReply(q)
	m.Answers = append(m.Answers, RR{
		Name: q.Question().Name, Type: TypeTXT, Class: ClassINET, TTL: 60,
		Data: &TXT{Strings: []string{payload}},
	})
	if edit != nil {
		edit(m)
	}
	pkt, err := m.Pack()
	if err != nil {
		t.Error(err)
	}
	return pkt
}

func txtPayload(t *testing.T, resp *Message) string {
	t.Helper()
	if len(resp.Answers) != 1 {
		t.Fatalf("got %d answers, want 1", len(resp.Answers))
	}
	return resp.Answers[0].Data.(*TXT).Joined()
}

// TestClientDiscardsUnmatchedDatagrams has the upstream precede every
// real answer with datagrams that differ from it in ID, question name,
// type or class. The client must skip them all and take the real
// answer, whose question name arrives upper-cased, both on a fresh
// socket and on the same socket reused.
func TestClientDiscardsUnmatchedDatagrams(t *testing.T) {
	var mu sync.Mutex
	var ports []uint16
	addr := startRawUpstream(t, func(pc *net.UDPConn, pkt []byte, from netip.AddrPort) {
		var q Message
		if err := q.Unpack(pkt); err != nil {
			return
		}
		mu.Lock()
		ports = append(ports, from.Port())
		mu.Unlock()
		for _, edit := range []func(*Message){
			func(m *Message) { m.ID ^= 0x5a5a },
			func(m *Message) { m.Questions[0].Name = "other.example." },
			func(m *Message) { m.Questions[0].Type = TypeA },
			func(m *Message) { m.Questions[0].Class = ClassANY },
		} {
			_, _ = pc.WriteToUDPAddrPort(txtReply(t, &q, "decoy", edit), from)
		}
		real := txtReply(t, &q, "real", nil)
		// Label length octets are below 'a', so upper-casing the
		// question name's wire bytes changes only its letters.
		qname := real[headerLen : headerLen+len(q.Question().Name)+1]
		copy(qname, bytes.ToUpper(qname))
		_, _ = pc.WriteToUDPAddrPort(real, from)
	})

	c := &Client{Timeout: 2 * time.Second}
	for i := 0; i < 2; i++ {
		resp, err := c.Query(context.Background(), addr, "match.example", TypeTXT)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := txtPayload(t, resp); got != "real" {
			t.Fatalf("query %d accepted %q, want the real answer", i, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != 2 || ports[0] != ports[1] {
		t.Fatalf("source ports %v: the second query did not reuse the first socket", ports)
	}
}

// TestClientDoesNotPoolTimedOutSocket has the upstream hold its answer
// to the first query past the client's deadline and send it once the
// next query arrives. The next query must get its own answer, from a
// different socket: the timed-out one was closed, not pooled.
func TestClientDoesNotPoolTimedOutSocket(t *testing.T) {
	type pending struct {
		reply []byte
		to    netip.AddrPort
	}
	var mu sync.Mutex
	var late *pending
	var ports []uint16
	addr := startRawUpstream(t, func(pc *net.UDPConn, pkt []byte, from netip.AddrPort) {
		var q Message
		if err := q.Unpack(pkt); err != nil {
			return
		}
		mu.Lock()
		ports = append(ports, from.Port())
		if late == nil {
			late = &pending{txtReply(t, &q, "late", nil), from}
			mu.Unlock()
			return
		}
		l := late
		mu.Unlock()
		_, _ = pc.WriteToUDPAddrPort(l.reply, l.to)
		_, _ = pc.WriteToUDPAddrPort(txtReply(t, &q, "fresh", nil), from)
	})

	c := &Client{Timeout: 150 * time.Millisecond}
	if _, err := c.Query(context.Background(), addr, "slow.example", TypeTXT); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first query: %v, want a timeout", err)
	}
	c.Timeout = 2 * time.Second
	resp, err := c.Query(context.Background(), addr, "slow.example", TypeTXT)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if got := txtPayload(t, resp); got != "fresh" {
		t.Fatalf("second query got %q, want its own answer", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != 2 || ports[0] == ports[1] {
		t.Fatalf("source ports %v: the timed-out socket was reused", ports)
	}
}

// TestClientRotatesSourcePort sends more sequential queries than one
// socket may serve: the upstream must see the source port change (the
// pool reuses a socket at most udpSocketUses times) while each
// socket's queries share a port, and the IDs must not run in sequence.
func TestClientRotatesSourcePort(t *testing.T) {
	var mu sync.Mutex
	var ports, ids []uint16
	addr := startRawUpstream(t, func(pc *net.UDPConn, pkt []byte, from netip.AddrPort) {
		var q Message
		if err := q.Unpack(pkt); err != nil {
			return
		}
		mu.Lock()
		ports = append(ports, from.Port())
		ids = append(ids, q.ID)
		mu.Unlock()
		_, _ = pc.WriteToUDPAddrPort(txtReply(t, &q, "ok", nil), from)
	})

	c := &Client{Timeout: 2 * time.Second}
	const queries = 2*udpSocketUses + 1
	for i := 0; i < queries; i++ {
		if _, err := c.Query(context.Background(), addr, "rotate.example", TypeTXT); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != queries {
		t.Fatalf("upstream saw %d queries, want %d", len(ports), queries)
	}
	distinct := make(map[uint16]bool)
	for i, p := range ports {
		distinct[p] = true
		if i > 0 && i%udpSocketUses != 0 && p != ports[i-1] {
			t.Errorf("query %d moved from port %d to %d before the socket's %d uses ran out",
				i, ports[i-1], p, udpSocketUses)
		}
	}
	if len(distinct) < 2 {
		t.Errorf("%d queries all came from port %d; the source port never rotated", queries, ports[0])
	}
	sequential := 0
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1]+1 {
			sequential++
		}
	}
	if sequential > 2 {
		t.Errorf("%d of %d consecutive IDs are sequential; IDs must be random", sequential, len(ids)-1)
	}
}

// TestClientReplacesStaleSocket has a netsim upstream close each
// connection after answering one query, so every pooled socket is
// stale by the time it is reused. Each query must still succeed: the
// write fails on the reused socket and one fresh socket answers.
func TestClientReplacesStaleSocket(t *testing.T) {
	fabric := netsim.NewFabric()
	ln, err := fabric.Listen(netip.MustParseAddrPort("192.0.2.53:53"))
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			var q Message
			if n, err := conn.Read(buf); err == nil && q.Unpack(buf[:n]) == nil {
				_, _ = conn.Write(txtReply(t, &q, "ok", nil))
			}
			conn.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})

	c := &Client{Dialer: fabric, Timeout: 2 * time.Second}
	const queries = 3
	for i := 0; i < queries; i++ {
		if _, err := c.Query(context.Background(), "192.0.2.53:53", "stale.example", TypeTXT); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := accepted.Load(); got != queries {
		t.Errorf("upstream accepted %d sockets for %d queries, want one fresh socket each", got, queries)
	}
}

// dialerFunc is a Dialer whose type cannot be compared, so it cannot
// key the shared pool.
type dialerFunc func(ctx context.Context, network, address string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return f(ctx, network, address)
}

// TestClientPoolsWithUncomparableDialer checks that a func-typed Dialer
// neither panics the pool lookup nor loses socket reuse.
func TestClientPoolsWithUncomparableDialer(t *testing.T) {
	var dials atomic.Int32
	var d net.Dialer
	c := &Client{Timeout: 2 * time.Second, Dialer: dialerFunc(func(ctx context.Context, network, address string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, address)
	})}
	addr := startEchoUpstream(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Query(context.Background(), addr, "func.example", TypeTXT); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials for 3 sequential queries, want 1", got)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestClientIdleSocketsBounded runs many Clients at once against one
// upstream, which holds every answer until all their queries are in
// flight, so each needs a socket of its own. Once all are answered the
// process may keep at most maxIdleUDP of those sockets open.
func TestClientIdleSocketsBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	const clients = 4 * maxIdleUDP
	type held struct {
		reply []byte
		to    netip.AddrPort
	}
	var waiting []held
	var mu sync.Mutex
	ports := make(map[uint16]bool)
	addr := startRawUpstream(t, func(pc *net.UDPConn, pkt []byte, from netip.AddrPort) {
		var q Message
		if err := q.Unpack(pkt); err != nil {
			return
		}
		mu.Lock()
		ports[from.Port()] = true
		mu.Unlock()
		waiting = append(waiting, held{txtReply(t, &q, "ok", nil), from})
		if len(waiting) < clients {
			return
		}
		for _, h := range waiting {
			_, _ = pc.WriteToUDPAddrPort(h.reply, h.to)
		}
		waiting = waiting[:0]
	})

	before := openFDs(t)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Timeout: 5 * time.Second}
			if _, err := c.Query(context.Background(), addr, "fd.example", TypeTXT); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	after := openFDs(t)
	mu.Lock()
	defer mu.Unlock()
	if len(ports) != clients {
		t.Fatalf("upstream saw %d source ports, want %d concurrent sockets", len(ports), clients)
	}
	if grew := after - before; grew > maxIdleUDP {
		t.Errorf("open descriptors grew by %d after %d concurrent clients, want at most %d",
			grew, clients, maxIdleUDP)
	}
}

// startEchoUpstream answers each query with the query itself, QR bit
// set. It allocates nothing per query, so allocations counted around
// an exchange are the client's own.
func startEchoUpstream(t testing.TB) string {
	return startRawUpstream(t, func(pc *net.UDPConn, pkt []byte, from netip.AddrPort) {
		if len(pkt) < headerLen {
			return
		}
		pkt[2] |= flagQR >> 8
		_, _ = pc.WriteToUDPAddrPort(pkt, from)
	})
}

// clientExchangeAllocBudget is the allocation count of one warm UDP
// exchange (pooled socket, echoed reply carrying the query's question
// and OPT record), as measured when the socket pool was introduced.
const clientExchangeAllocBudget = 12

func TestClientExchangeUDPAllocBudget(t *testing.T) {
	addr := startEchoUpstream(t)
	c := &Client{Timeout: 2 * time.Second}
	ctx := context.Background()
	query := func() {
		if _, err := c.Query(ctx, addr, "t01.m000001.spf-test.dns-lab.example.", TypeTXT); err != nil {
			t.Fatal(err)
		}
	}
	query() // dial the socket the measured exchanges reuse
	if allocs := testing.AllocsPerRun(200, query); allocs > clientExchangeAllocBudget {
		t.Errorf("warm UDP exchange: %v allocs/op, budget %d", allocs, clientExchangeAllocBudget)
	}
}

func BenchmarkClientExchangeUDP(b *testing.B) {
	addr := startEchoUpstream(b)
	c := &Client{Timeout: 2 * time.Second}
	ctx := context.Background()
	if _, err := c.Query(ctx, addr, "t01.m000001.spf-test.dns-lab.example.", TypeTXT); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Query(ctx, addr, "t01.m000001.spf-test.dns-lab.example.", TypeTXT); err != nil {
			b.Fatal(err)
		}
	}
}
