// Package mpi provides a message-passing runtime that stands in for MPI in
// the paper's multi-GPU parallelization. A World is a fixed-size universe of
// ranks; how bytes move between them is pluggable (the Transport interface):
//
//   - the in-process transport (NewWorld): ranks are goroutines in one
//     address space, links are mailboxes, payloads move by reference, like
//     MPI between processes on one node with shared-memory windows;
//   - the socket transport (NewSocketWorld): ranks live in one or many OS
//     processes, links are TCP or Unix-socket connections carrying
//     length-prefixed frames encoded by the typed codec (codec.go), so every
//     payload is deep-copied by construction and the traffic meters see real
//     wire bytes.
//
// Sends are "eager" (never block) exactly like small-message MPI sends, and
// receives match on (source, tag) in FIFO order per pair. The semantics are
// identical across transports — the conformance suite pins them — with one
// deliberate exception: the in-process transport passes payloads by
// reference, so senders must not mutate a payload after Send (the wire
// transport serializes and is immune).
//
// The runtime also meters traffic: every rank's sent bytes and message
// counts are recorded, which is how the repository validates the paper's
// claim (§III.B.2) that per-rank communication volume scales with the domain
// *surface* rather than its volume. Under a wire transport the per-pair
// matrix (PairBytes) records real framed bytes rather than declared sizes.
//
// Collectives (Barrier, Bcast, Allgather(v), Allreduce, Alltoallv) are built
// on point-to-point messages in a reserved tag space. They assume SPMD use:
// every rank issues the same sequence of collective calls, which is how the
// simulation step is structured (matching real MPI semantics).
package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MaxUserTag is the exclusive upper bound for user point-to-point tags;
// larger tags are reserved for collectives.
const MaxUserTag = 1 << 30

// message is one queued point-to-point message. seq is the mailbox-local
// arrival number; the queue is always sorted by it, which lets blocked
// receivers resume scanning where their last pass ended instead of rescanning
// the whole queue on every wakeup.
type message struct {
	from int
	tag  int
	seq  uint64
	data any
}

// mailbox is the receive queue of one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []message
	nextSeq uint64 // seq assigned to the next arrival
}

func newMailbox() *mailbox {
	mb := &mailbox{nextSeq: 1}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// take removes and returns queue[i]. The vacated tail slot is zeroed so the
// mailbox never retains a stale reference to a delivered payload — large LET
// payloads would otherwise stay reachable by the GC until the slot happened
// to be overwritten by a later send. Callers must hold mb.mu.
func (mb *mailbox) take(i int) message {
	m := mb.queue[i]
	copy(mb.queue[i:], mb.queue[i+1:])
	last := len(mb.queue) - 1
	mb.queue[last] = message{}
	mb.queue = mb.queue[:last]
	return m
}

// scanStart returns the index of the first queued message not yet seen by a
// receiver that has already scanned (and failed to match) every message with
// seq < scanned. The queue is sorted by seq — removals preserve order and
// arrivals append — so messages below the resume point can be skipped: they
// were scanned once, did not match, and immutable messages never start
// matching later. Callers must hold mb.mu.
func (mb *mailbox) scanStart(scanned uint64) int {
	q := mb.queue
	if scanned == 0 || len(q) == 0 || q[0].seq >= scanned {
		return 0
	}
	return sort.Search(len(q), func(i int) bool { return q[i].seq >= scanned })
}

// World is a communicator universe of size ranks. A world created by
// NewWorld hosts every rank in this process; a world created by
// NewSocketWorld hosts a subset (often one), with the rest reachable over
// the wire.
type World struct {
	size int
	mail []*mailbox // per rank; nil for ranks hosted by another process
	tr   Transport

	bytesSent []atomic.Int64
	msgsSent  []atomic.Int64

	// pairBytes (nil unless MeterPairs was called) is a size×size row-major
	// matrix of bytes sent per (from, to) rank pair — declared bytes
	// in-process, real framed bytes over a wire transport.
	pairBytes []atomic.Int64
}

// NewWorld creates a world with the given number of ranks, all hosted in
// this process and linked by the in-process mailbox transport.
func NewWorld(size int) *World {
	w := newWorldShell(size)
	for i := range w.mail {
		w.mail[i] = newMailbox()
	}
	w.tr = &chanTransport{w: w}
	return w
}

// newWorldShell allocates a World with no mailboxes and no transport; the
// constructors fill those in.
func newWorldShell(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	return &World{
		size:      size,
		mail:      make([]*mailbox, size),
		bytesSent: make([]atomic.Int64, size),
		msgsSent:  make([]atomic.Int64, size),
	}
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Local reports whether the given rank's mailbox lives in this process.
func (w *World) Local(rank int) bool {
	return rank >= 0 && rank < w.size && w.mail[rank] != nil
}

// Transport returns the transport moving this world's messages.
func (w *World) Transport() Transport { return w.tr }

// Close shuts the transport down: queued wire frames are flushed, links and
// listeners are closed, and the transport's goroutines are joined. Callers
// must have drained all expected receives first (a final Barrier suffices).
// Close is a no-op for the in-process transport.
func (w *World) Close() error { return w.tr.Close() }

// BytesSent returns the cumulative bytes sent by a rank (as declared by
// senders through the nbytes arguments). Under a multi-process transport
// each process observes only its locally hosted ranks' sends.
func (w *World) BytesSent(rank int) int64 { return w.bytesSent[rank].Load() }

// TotalBytes returns the bytes sent summed over all ranks.
func (w *World) TotalBytes() int64 {
	var t int64
	for i := 0; i < w.size; i++ {
		t += w.bytesSent[i].Load()
	}
	return t
}

// TotalMessages returns the message count summed over all ranks, including
// messages generated internally by collectives.
func (w *World) TotalMessages() int64 {
	var t int64
	for i := 0; i < w.size; i++ {
		t += w.msgsSent[i].Load()
	}
	return t
}

// MeterPairs turns on the per-(from, to) pair byte matrix PairBytes reads:
// every send adds its bytes to its pair's total. Call before the ranks start
// communicating.
func (w *World) MeterPairs() { w.pairBytes = make([]atomic.Int64, w.size*w.size) }

// PairBytes returns the cumulative bytes sent from one rank to another: the
// sender-declared size in-process, the real framed byte count (codec payload
// plus frame header) over a wire transport. Zero unless MeterPairs was
// called; under a multi-process transport each process sees only rows of
// locally hosted ranks.
func (w *World) PairBytes(from, to int) int64 {
	if w.pairBytes == nil {
		return 0
	}
	return w.pairBytes[from*w.size+to].Load()
}

// deliver appends a message to a locally hosted rank's mailbox and wakes its
// receivers. Transports call it — synchronously from Send in-process, from a
// connection reader on the wire path.
func (w *World) deliver(to, from, tag int, data any) {
	mb := w.mail[to]
	if mb == nil {
		panic(fmt.Sprintf("mpi: delivery for rank %d, which is not hosted in this process", to))
	}
	mb.mu.Lock()
	mb.queue = append(mb.queue, message{from: from, tag: tag, seq: mb.nextSeq, data: data})
	mb.nextSeq++
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Comm is a rank's handle on the world.
type Comm struct {
	w       *World
	rank    int
	collSeq int // sequence number for collective tag allocation
}

// Comm returns the communicator handle for the given rank, which must be
// hosted in this process.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	if w.mail[rank] == nil {
		panic(fmt.Sprintf("mpi: rank %d is not hosted in this process", rank))
	}
	return &Comm{w: w, rank: rank}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// World returns the communicator's world.
func (c *Comm) World() *World { return c.w }

// Send delivers data to rank `to` with the given tag. nbytes is the payload
// size the message would have on a wire; it feeds the traffic meters only.
// Send never blocks. The payload must not be mutated after the call: the
// in-process transport passes it by reference (the wire transport encodes it
// before returning and is insensitive).
func (c *Comm) Send(to, tag int, data any, nbytes int) {
	if tag < 0 || tag >= MaxUserTag {
		panic(fmt.Sprintf("mpi: user tag %d out of range", tag))
	}
	c.send(to, tag, data, nbytes)
}

func (c *Comm) send(to, tag int, data any, nbytes int) {
	if to < 0 || to >= c.w.size {
		panic(fmt.Sprintf("mpi: destination %d out of range", to))
	}
	c.w.bytesSent[c.rank].Add(int64(nbytes))
	c.w.msgsSent[c.rank].Add(1)
	wire := c.w.tr.Send(c.rank, to, tag, data)
	if c.w.pairBytes != nil {
		b := int64(nbytes)
		if wire > 0 {
			b = int64(wire)
		}
		c.w.pairBytes[c.rank*c.w.size+to].Add(b)
	}
}

// Recv blocks until a message from rank `from` with the given tag arrives
// and returns its payload. Messages from the same (source, tag) pair are
// received in send order. After each fruitless pass the receiver remembers
// how far it scanned, so wakeups for other (source, tag) pairs cost only the
// messages that arrived since — deep mailboxes at high rank counts would
// otherwise make every wakeup a full O(depth) rescan.
func (c *Comm) Recv(from, tag int) any {
	mb := c.w.mail[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var scanned uint64
	for {
		for i := mb.scanStart(scanned); i < len(mb.queue); i++ {
			m := &mb.queue[i]
			if m.from == from && m.tag == tag {
				return mb.take(i).data
			}
		}
		scanned = mb.nextSeq
		mb.cond.Wait()
	}
}

// RecvAny blocks until a message with the given tag arrives from any source,
// with the same scan-resume behavior as Recv.
func (c *Comm) RecvAny(tag int) (from int, data any) {
	mb := c.w.mail[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var scanned uint64
	for {
		for i := mb.scanStart(scanned); i < len(mb.queue); i++ {
			if mb.queue[i].tag == tag {
				m := mb.take(i)
				return m.from, m.data
			}
		}
		scanned = mb.nextSeq
		mb.cond.Wait()
	}
}

// TryRecvAny is the non-blocking variant of RecvAny. ok reports whether a
// message was available.
func (c *Comm) TryRecvAny(tag int) (from int, data any, ok bool) {
	mb := c.w.mail[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i := range mb.queue {
		if mb.queue[i].tag == tag {
			m := mb.take(i)
			return m.from, m.data, true
		}
	}
	return 0, nil, false
}

// nextCollTag allocates the tag for the next collective operation. SPMD use
// keeps the per-rank counters in lockstep.
func (c *Comm) nextCollTag() int {
	t := MaxUserTag + c.collSeq
	c.collSeq++
	return t
}

// Barrier blocks until every rank has entered the barrier.
func (c *Comm) Barrier() {
	tag := c.nextCollTag()
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			c.Recv(r, tag)
		}
		for r := 1; r < c.Size(); r++ {
			c.send(r, tag, nil, 0)
		}
	} else {
		c.send(0, tag, nil, 0)
		c.Recv(0, tag)
	}
}
