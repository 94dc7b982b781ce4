package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wire transport: ranks connected by TCP or Unix-domain
// sockets carrying length-prefixed frames of codec-encoded payloads. A
// process hosts any subset of a world's ranks (the launcher in cmd/bonsai
// hosts one per worker process; the conformance tests host all of them and
// still push every byte through real sockets).
//
// Topology: every rank listens on its own address. The first message from
// rank a to rank b lazily creates a link — one dialed connection owned by a
// write-pump goroutine, so sends stay eager (the sender enqueues a frame and
// returns) and per-(from,to) FIFO order is the order of one socket stream.
// Dialing retries with exponential backoff because peer processes start
// asynchronously.
//
// Wire format, little-endian. Connection preamble:
//
//	magic   uint32 "BMP1"
//	from    uint32 (sending rank)
//	to      uint32 (receiving rank)
//
// then a stream of frames:
//
//	length  uint32 (bytes after this field)
//	tag     int64
//	kind    uint16 (codec.go payload kind)
//	payload length-10 bytes
//
// The frame byte count (4+8+2+payload) is what Send reports and what the
// PairBytes matrix records: real network bytes, not declared sizes.

const sockMagic = 0x424d5031 // "BMP1"

const frameOverhead = 4 + 8 + 2

// SocketConfig describes a socket-transport world.
type SocketConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Addrs holds one listen address per rank (a host:port for tcp, a
	// socket path for unix). When every rank is hosted in one process, tcp
	// addresses may use port 0 and the actual bound ports are used for
	// dialing; multi-process worlds need concrete addresses every process
	// agrees on.
	Addrs []string
	// Local lists the ranks hosted by this process.
	Local []int
	// DialTimeout bounds the total retry/backoff time establishing one
	// link; 0 selects 15s. Peer processes start asynchronously, so early
	// dials are expected to fail and are retried with exponential backoff.
	DialTimeout time.Duration
}

// NewSocketWorld creates a world whose messages travel over real sockets.
// The calling process hosts cfg.Local's ranks: their mailboxes live here and
// their listeners are bound before the call returns, so peers can dial as
// soon as their own worlds exist. Callers must Close the world when done.
func NewSocketWorld(size int, cfg SocketConfig) (*World, error) {
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("mpi: unsupported socket network %q", cfg.Network)
	}
	if len(cfg.Addrs) != size {
		return nil, fmt.Errorf("mpi: %d addrs for %d ranks", len(cfg.Addrs), size)
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("mpi: socket world with no local ranks")
	}
	w := newWorldShell(size)
	st := &sockTransport{
		w:           w,
		network:     cfg.Network,
		addrs:       append([]string(nil), cfg.Addrs...),
		links:       make(map[linkKey]*link),
		dialTimeout: cfg.DialTimeout,
	}
	if st.dialTimeout <= 0 {
		st.dialTimeout = 15 * time.Second
	}
	w.tr = st
	for _, r := range cfg.Local {
		if r < 0 || r >= size {
			st.Close()
			return nil, fmt.Errorf("mpi: local rank %d out of range [0,%d)", r, size)
		}
		if w.mail[r] != nil {
			st.Close()
			return nil, fmt.Errorf("mpi: local rank %d listed twice", r)
		}
		if cfg.Network == "unix" {
			os.Remove(st.addrs[r]) // a stale socket file from a killed run
		}
		ln, err := net.Listen(cfg.Network, st.addrs[r])
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("mpi: rank %d listen: %w", r, err)
		}
		w.mail[r] = newMailbox()
		st.addrs[r] = ln.Addr().String() // resolves tcp port-0 addresses
		st.listeners = append(st.listeners, ln)
	}
	for _, ln := range st.listeners {
		st.readers.Add(1)
		go st.acceptLoop(ln)
	}
	return w, nil
}

type linkKey struct{ from, to int }

// link is the outgoing frame queue of one (from, to) pair, drained by a
// single pump goroutine writing to one dialed connection.
type link struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
}

func (lk *link) enqueue(frame []byte) {
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return // shutting down; undeliverable by design
	}
	lk.q = append(lk.q, frame)
	lk.mu.Unlock()
	lk.cond.Signal()
}

func (lk *link) shutdown() {
	lk.mu.Lock()
	lk.closed = true
	lk.mu.Unlock()
	lk.cond.Broadcast()
}

type sockTransport struct {
	w           *World
	network     string
	addrs       []string
	listeners   []net.Listener
	dialTimeout time.Duration

	mu    sync.Mutex
	links map[linkKey]*link
	conns []net.Conn // accepted connections, closed on shutdown

	closed  atomic.Bool
	pumps   sync.WaitGroup
	readers sync.WaitGroup
}

func (st *sockTransport) Wire() bool { return true }

func (st *sockTransport) Send(from, to, tag int, data any) int {
	frame, kind := encodeFrame(tag, data)
	if from == to {
		// Self-sends skip the socket but keep wire semantics: the payload
		// round-trips through the codec, so the delivered value is a deep
		// copy and the meters see the framed size.
		v, err := decodePayload(kind, frame[frameOverhead:])
		if err != nil {
			panic(err)
		}
		st.w.deliver(to, from, tag, v)
		return len(frame)
	}
	st.link(from, to).enqueue(frame)
	return len(frame)
}

// encodeFrame encodes one frame, header and payload, in a single allocation
// of its exact size: the payload is encoded in place after the header. It
// returns the frame and the payload's kind.
func encodeFrame(tag int, data any) ([]byte, uint16) {
	frame := make([]byte, frameOverhead, frameOverhead+payloadBytes(data))
	kind, frame, err := appendPayload(frame, data)
	if err != nil {
		panic(err)
	}
	le := binary.LittleEndian
	le.PutUint32(frame, uint32(len(frame)-4))
	le.PutUint64(frame[4:], uint64(int64(tag)))
	le.PutUint16(frame[12:], kind)
	return frame, kind
}

// link returns the (from, to) link, creating it and starting its write pump
// on first use.
func (st *sockTransport) link(from, to int) *link {
	key := linkKey{from, to}
	st.mu.Lock()
	lk := st.links[key]
	if lk == nil {
		lk = &link{}
		lk.cond = sync.NewCond(&lk.mu)
		st.links[key] = lk
		st.pumps.Add(1)
		go st.pump(from, to, lk)
	}
	st.mu.Unlock()
	return lk
}

// pump owns one link's connection: dial (with backoff), preamble, then write
// frames in queue order until the link is shut down and drained.
func (st *sockTransport) pump(from, to int, lk *link) {
	defer st.pumps.Done()
	conn := st.dial(to)
	if conn == nil {
		return // transport closed while dialing
	}
	defer conn.Close()
	pre := appendU32(nil, sockMagic)
	pre = appendU32(pre, uint32(from))
	pre = appendU32(pre, uint32(to))
	if _, err := conn.Write(pre); err != nil {
		st.writeFailed(to, err)
		return
	}
	for {
		lk.mu.Lock()
		for len(lk.q) == 0 && !lk.closed {
			lk.cond.Wait()
		}
		batch := lk.q
		lk.q = nil
		done := lk.closed && len(batch) == 0
		lk.mu.Unlock()
		if done {
			return
		}
		for _, fr := range batch {
			if _, err := conn.Write(fr); err != nil {
				st.writeFailed(to, err)
				return
			}
		}
	}
}

// writeFailed handles a connection write error: silent during shutdown,
// fatal while the world is live (a vanished peer leaves the SPMD step
// unfinishable; crashing lets a supervisor restart the job from the last
// checkpoint).
func (st *sockTransport) writeFailed(to int, err error) {
	if st.closed.Load() {
		return
	}
	panic(fmt.Sprintf("mpi: write to rank %d failed: %v", to, err))
}

func (st *sockTransport) dial(to int) net.Conn {
	deadline := time.Now().Add(st.dialTimeout)
	backoff := time.Millisecond
	for {
		if st.closed.Load() {
			return nil
		}
		conn, err := net.Dial(st.network, st.addrs[to])
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("mpi: dialing rank %d at %s %s: %v (after %v of retries)",
				to, st.network, st.addrs[to], err, st.dialTimeout))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 200*time.Millisecond {
			backoff = 200 * time.Millisecond
		}
	}
}

func (st *sockTransport) acceptLoop(ln net.Listener) {
	defer st.readers.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		st.mu.Lock()
		if st.closed.Load() {
			st.mu.Unlock()
			conn.Close()
			return
		}
		st.conns = append(st.conns, conn)
		st.mu.Unlock()
		st.readers.Add(1)
		go st.serveConn(conn)
	}
}

// serveConn decodes one inbound connection's frames into the destination
// mailbox. I/O errors end the stream silently (clean shutdown and killed
// peers look the same from here); protocol corruption panics.
func (st *sockTransport) serveConn(conn net.Conn) {
	defer st.readers.Done()
	from, to, err := readPreamble(conn, st.w)
	if err != nil {
		if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrPreambleRanks) {
			panic(err.Error())
		}
		return
	}
	for {
		tag, _, data, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrShortFrame) || errors.Is(err, ErrBadPayload) {
				panic(fmt.Sprintf("mpi: frame from rank %d: %v", from, err))
			}
			return // EOF on a frame boundary (peer closed) or a cut frame
		}
		st.w.deliver(to, from, int(tag), data)
	}
}

// The named errors of the socket decoder. An I/O error of the connection
// (io.EOF on a frame boundary, io.ErrUnexpectedEOF inside one) is returned
// as it is.
var (
	// ErrBadMagic: a connection's preamble does not start with "BMP1".
	ErrBadMagic = errors.New("mpi: bad connection magic")
	// ErrPreambleRanks: a preamble names a sender outside the world or a
	// receiver this process does not host.
	ErrPreambleRanks = errors.New("mpi: connection preamble names ranks not served here")
	// ErrShortFrame: a frame's length is shorter than its tag and kind.
	ErrShortFrame = errors.New("mpi: frame shorter than its header")
	// ErrBadPayload wraps the codec's error for a payload that does not
	// decode (ErrUnknownKind, ErrSliceCount, a truncated value, a LET that
	// fails lettree.Unmarshal).
	ErrBadPayload = errors.New("mpi: undecodable frame payload")
)

// readPreamble reads a connection's 12-byte preamble and returns the sending
// and receiving ranks it names, which must be a rank of w and a rank w hosts.
func readPreamble(r io.Reader, w *World) (from, to int, err error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, 0, err
	}
	le := binary.LittleEndian
	if m := le.Uint32(pre[0:]); m != sockMagic {
		return 0, 0, fmt.Errorf("%w %#x", ErrBadMagic, m)
	}
	from = int(int32(le.Uint32(pre[4:])))
	to = int(int32(le.Uint32(pre[8:])))
	if from < 0 || from >= w.size || !w.Local(to) {
		return 0, 0, fmt.Errorf("%w: %d -> %d", ErrPreambleRanks, from, to)
	}
	return from, to, nil
}

// readFrame reads one frame and decodes its payload. The frame's length does
// not size an allocation up front (readBody), and its payload decodes to the
// value that was sent or to an ErrBadPayload.
func readFrame(r io.Reader) (tag int64, kind uint16, data any, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < frameOverhead-4 {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes", ErrShortFrame, n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		return 0, 0, nil, err
	}
	tag = int64(binary.LittleEndian.Uint64(body[0:]))
	kind = binary.LittleEndian.Uint16(body[8:])
	if data, err = decodePayload(kind, body[10:]); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: kind %d: %w", ErrBadPayload, kind, err)
	}
	return tag, kind, data, nil
}

// bodyChunk is the largest frame body allocated before any of its bytes
// arrive.
const bodyChunk = 1 << 20

// readBody reads an n-byte frame body. The length came off the wire, so it
// does not size the buffer up front: the buffer starts at min(n, bodyChunk)
// and doubles as bytes arrive, so a corrupt or hostile length costs at most
// about twice the bytes actually received, and a frame under bodyChunk still
// takes one allocation.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, bodyChunk))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	for have := len(body); have < n; have = len(body) {
		body = slices.Grow(body, min(have, n-have))[:min(2*have, n)]
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Close flushes every link's queued frames, closes connections and
// listeners, and joins the transport's goroutines. Messages still in flight
// toward this process are dropped: by the SPMD contract every expected
// receive has completed before any rank closes its world.
func (st *sockTransport) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	st.mu.Lock()
	links := make([]*link, 0, len(st.links))
	for _, lk := range st.links {
		links = append(links, lk)
	}
	st.mu.Unlock()
	for _, lk := range links {
		lk.shutdown()
	}
	st.pumps.Wait() // pumps drain their queues, then close their conns
	for _, ln := range st.listeners {
		ln.Close()
	}
	st.mu.Lock()
	conns := st.conns
	st.conns = nil
	st.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	st.readers.Wait()
	if st.network == "unix" {
		for _, ln := range st.listeners {
			os.Remove(ln.Addr().String())
		}
	}
	return nil
}
