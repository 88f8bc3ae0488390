package dns

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"reflect"
	"slices"
	"sync"
	"time"
)

// Client exchange errors.
var (
	ErrIDMismatch = errors.New("dns: response ID does not match query")
	ErrNotReply   = errors.New("dns: response flag not set")
)

// Dialer abstracts connection establishment so exchanges can run over
// real sockets or a simulated network fabric.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Client performs DNS exchanges over UDP and TCP.
//
// A zero Client is usable: UDP with a 5-second timeout and automatic
// TCP retry on truncation.
//
// UDP exchanges run over connected sockets from one process-wide pool
// keyed by (Dialer, network, upstream address), so every Client that
// reaches the same upstream through the same Dialer shares them. An
// exchange checks a socket out for its sole use and returns it
// afterwards; the socket keeps its own buffer, so a warm exchange
// neither dials nor allocates one.
//
//   - Reply matching: a datagram is the reply only when its ID and its
//     question's name (compared case-insensitively), type and class
//     match the query (RFC 5452 §9.1). Any other datagram is discarded
//     and the read continues until the deadline.
//   - Retirement: a socket is closed instead of returned after a
//     timeout or any read or write error, and after 256 exchanges,
//     which rotates the source port (RFC 5452 §10). IDs are random per
//     query. A read or write error on a reused socket is retried once
//     on a fresh socket, so a stale socket never reaches the caller as
//     a failure.
//   - Idle cap: at most 16 sockets sit idle across the whole process;
//     returning one more closes the longest-idle socket.
//
// Because a socket is dialed once and then reused, dial faults injected
// by a netsim fabric strike per socket, not per query. TCP exchanges
// dial one connection per query.
type Client struct {
	// Dialer establishes connections. nil means a net.Dialer.
	Dialer Dialer
	// Timeout bounds a single exchange. Zero means 5 seconds.
	Timeout time.Duration
	// UDPSize is the EDNS0 payload size advertised on UDP queries.
	// Zero means 1232. Negative disables EDNS0.
	UDPSize int
	// DisableTCPFallback suppresses the TCP retry that normally
	// follows a truncated UDP response.
	DisableTCPFallback bool
}

const (
	defaultTimeout = 5 * time.Second
	// maxIdleUDP caps idle pooled UDP sockets process-wide. A cap per
	// Client would let a simulated fleet of ~1000 resolvers each keep
	// its own idle sockets open.
	maxIdleUDP = 16
	// udpSocketUses is how many exchanges one socket serves before it
	// is closed, so the query source port keeps changing.
	udpSocketUses = 256
)

func (c *Client) dialer() Dialer {
	if c.Dialer != nil {
		return c.Dialer
	}
	return &net.Dialer{}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

// nextID returns a fresh random transaction ID.
func nextID() uint16 { return uint16(rand.Uint32()) }

// Query sends a single-question query for (name, t) to addr and
// returns the response. UDP is tried first, with a TCP retry on
// truncation unless disabled.
func (c *Client) Query(ctx context.Context, addr, name string, t Type) (*Message, error) {
	q := new(Message).SetQuestion(name, t)
	return c.Exchange(ctx, q, addr)
}

// Exchange sends msg to addr and returns the response. The message ID
// is assigned if zero. UDP is tried first, with a TCP retry on
// truncation unless disabled.
func (c *Client) Exchange(ctx context.Context, msg *Message, addr string) (*Message, error) {
	if msg.ID == 0 {
		msg.ID = nextID()
	}
	resp, err := c.ExchangeOver(ctx, msg, "udp", addr)
	if err != nil {
		return nil, err
	}
	if resp.Truncated && !c.DisableTCPFallback {
		return c.ExchangeOver(ctx, msg, "tcp", addr)
	}
	return resp, nil
}

// ExchangeOver sends msg to addr over the given network ("udp" or
// "tcp") and returns the response.
func (c *Client) ExchangeOver(ctx context.Context, msg *Message, network, addr string) (*Message, error) {
	if msg.ID == 0 {
		msg.ID = nextID()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dns: %s exchange with %s: %w", network, addr, err)
	}
	deadline := time.Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	switch network {
	case "tcp", "tcp4", "tcp6":
		return c.queryTCP(ctx, msg, network, addr, deadline)
	}
	return c.queryUDP(ctx, msg, network, addr, deadline)
}

// dial opens a connection to addr that must be established by deadline.
func (c *Client) dial(ctx context.Context, network, addr string, deadline time.Time) (net.Conn, error) {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	conn, err := c.dialer().DialContext(ctx, network, addr)
	if err != nil {
		return nil, fmt.Errorf("dns: dialing %s %s: %w", network, addr, err)
	}
	return conn, nil
}

// queryUDP exchanges msg over a pooled socket, falling back to one
// fresh socket when a reused one fails in transport.
func (c *Client) queryUDP(ctx context.Context, msg *Message, network, addr string, deadline time.Time) (*Message, error) {
	query := msg
	if c.UDPSize >= 0 {
		// Advertise EDNS0 on a copy so the caller's message is
		// unchanged for a potential TCP retry.
		clone := *msg
		clone.Additional = append([]RR(nil), msg.Additional...)
		size := c.UDPSize
		if size == 0 {
			size = 1232
		}
		clone.SetEDNS(uint16(size))
		query = &clone
	}

	key := udpKey{dialer: c.Dialer, network: network, addr: addr}
	if c.Dialer != nil && !reflect.TypeOf(c.Dialer).Comparable() {
		// An uncomparable Dialer cannot key the shared pool; this
		// Client's sockets then pool on their own.
		key.dialer = c
	}
	if sc := udpSockets.get(key); sc != nil {
		resp, broken, err := sc.exchange(query, deadline)
		if !broken || errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			return resp, err
		}
		// The socket may have gone stale while it sat idle (its peer
		// closed or restarted); a fresh socket gets the final say.
	}
	conn, err := c.dial(ctx, network, addr, deadline)
	if err != nil {
		return nil, err
	}
	resp, _, err := (&udpConn{Conn: conn, key: key}).exchange(query, deadline)
	return resp, err
}

// queryTCP exchanges msg over a connection dialed for this query.
func (c *Client) queryTCP(ctx context.Context, msg *Message, network, addr string, deadline time.Time) (*Message, error) {
	packed, err := msg.Pack()
	if err != nil {
		return nil, fmt.Errorf("dns: packing query: %w", err)
	}
	conn, err := c.dial(ctx, network, addr, deadline)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	if err := WriteTCPMessage(conn, packed); err != nil {
		return nil, err
	}
	respBuf, err := ReadTCPMessage(conn)
	if err != nil {
		return nil, err
	}
	resp := new(Message)
	if err := resp.Unpack(respBuf); err != nil {
		return nil, fmt.Errorf("dns: unpacking response: %w", err)
	}
	if resp.ID != msg.ID {
		return nil, ErrIDMismatch
	}
	if !resp.Response {
		return nil, ErrNotReply
	}
	return resp, nil
}

// udpKey names the upstream a pooled socket is connected to. dialer is
// the Client's Dialer (nil for net.Dialer), or the Client itself when
// the Dialer's type is not comparable.
type udpKey struct {
	dialer  any
	network string
	addr    string
}

// udpConn is a connected UDP socket with the buffer its exchanges use
// to send the query and receive the reply.
type udpConn struct {
	net.Conn
	key  udpKey
	uses int
	buf  []byte
}

// exchange sends query on sc and waits until deadline for the datagram
// that answers it. broken reports a read or write error, after which sc
// has been closed; otherwise sc is back in the pool (or closed, once it
// has served udpSocketUses exchanges).
func (sc *udpConn) exchange(query *Message, deadline time.Time) (resp *Message, broken bool, err error) {
	sc.uses++
	// The receive size follows the advertised EDNS0 size, with slack for
	// servers that overshoot it; reading a larger datagram truncates it.
	if size := query.EDNSUDPSize() + 1024; cap(sc.buf) < size {
		sc.buf = make([]byte, size)
	}
	packed, err := query.AppendPack(sc.buf[:0])
	if err != nil {
		udpSockets.put(sc)
		return nil, false, fmt.Errorf("dns: packing query: %w", err)
	}
	_ = sc.SetDeadline(deadline)
	if _, err := sc.Write(packed); err != nil {
		sc.Close()
		return nil, true, fmt.Errorf("dns: udp write: %w", err)
	}
	buf := sc.buf[:cap(sc.buf)]
	for {
		n, err := sc.Read(buf)
		if err != nil {
			sc.Close()
			return nil, true, fmt.Errorf("dns: udp read: %w", err)
		}
		if !replyMatches(buf[:n], query) {
			continue
		}
		resp := new(Message)
		err = resp.Unpack(buf[:n])
		udpSockets.put(sc)
		switch {
		case err != nil:
			return nil, false, fmt.Errorf("dns: unpacking response: %w", err)
		case !resp.Response:
			return nil, false, ErrNotReply
		}
		return resp, false, nil
	}
}

// headerLen is the size of the fixed DNS message header.
const headerLen = 12

// replyMatches reports whether pkt carries query's ID and, as its first
// question, query's name (case-insensitively), type and class. It reads
// the wire bytes in place, so discarding a datagram decodes nothing.
func replyMatches(pkt []byte, query *Message) bool {
	if len(pkt) < headerLen || uint16(pkt[0])<<8|uint16(pkt[1]) != query.ID ||
		pkt[4]|pkt[5] == 0 {
		return false
	}
	q := query.Question()
	end, ok := matchWireName(pkt, headerLen, CanonicalName(q.Name))
	if !ok || end+4 > len(pkt) {
		return false
	}
	return Type(uint16(pkt[end])<<8|uint16(pkt[end+1])) == q.Type &&
		Class(uint16(pkt[end+2])<<8|uint16(pkt[end+3])) == q.Class
}

// udpSockets is the process-wide pool of idle connected UDP sockets.
var udpSockets udpPool

// udpPool holds idle sockets in the order they were returned, so the
// front is the longest idle. It stays small (maxIdleUDP), so lookups
// scan it.
type udpPool struct {
	mu   sync.Mutex
	idle []*udpConn
}

// get checks out the most recently returned idle socket for key, or
// returns nil.
func (p *udpPool) get(key udpKey) *udpConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if sc := p.idle[i]; sc.key == key {
			p.idle = slices.Delete(p.idle, i, i+1)
			return sc
		}
	}
	return nil
}

// put returns sc to the pool, closing it instead once it has served
// udpSocketUses exchanges, and closing the longest-idle socket when the
// pool is full.
func (p *udpPool) put(sc *udpConn) {
	if sc.uses >= udpSocketUses {
		sc.Close()
		return
	}
	var oldest *udpConn
	p.mu.Lock()
	if len(p.idle) == maxIdleUDP {
		oldest = p.idle[0]
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.idle = append(p.idle, sc)
	p.mu.Unlock()
	if oldest != nil {
		oldest.Close()
	}
}

// WriteTCPMessage writes a DNS message with the two-octet length
// prefix used over TCP (RFC 1035 §4.2.2).
func WriteTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xFFFF {
		return ErrRDataTooLong
	}
	framed := make([]byte, 2+len(msg))
	framed[0] = byte(len(msg) >> 8)
	framed[1] = byte(len(msg))
	copy(framed[2:], msg)
	if _, err := w.Write(framed); err != nil {
		return fmt.Errorf("dns: tcp write: %w", err)
	}
	return nil
}

// ReadTCPMessage reads one length-prefixed DNS message from r.
func ReadTCPMessage(r io.Reader) ([]byte, error) {
	return readTCPMessageInto(r, nil)
}

// readTCPMessageInto reads one length-prefixed DNS message, reusing
// buf's backing array when its capacity suffices — the server's
// per-connection read path passes the previous message's buffer back
// in so a query stream allocates once, not once per query.
func readTCPMessageInto(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("dns: tcp length read: %w", err)
	}
	n := int(lenBuf[0])<<8 | int(lenBuf[1])
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("dns: tcp body read: %w", err)
	}
	return buf, nil
}
