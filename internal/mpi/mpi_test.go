package mpi

import (
	"sync"
	"testing"
)

// spawner creates a fresh world of the given size, runs fn on every rank
// concurrently, waits for completion, and returns the (closed, for wire
// transports) world. The same test bodies run over every transport:
// conformance_test.go provides the socket spawners.
type spawner func(size int, fn func(c *Comm)) *World

// runWorld runs fn on every rank of w and waits for completion.
func runWorld(w *World, fn func(c *Comm)) *World {
	var wg sync.WaitGroup
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	return w
}

// spawn is the in-process spawner.
func spawn(size int, fn func(c *Comm)) *World {
	return runWorld(NewWorld(size), fn)
}

// The shared transport-conformance bodies. Each pins one piece of the
// semantics contract; TestXxx drivers below run them in-process and
// TestTransportConformance runs the same matrix over unix and tcp sockets.

func testSendRecvBasic(t *testing.T, sp spawner) {
	sp(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, "hello", 5)
		} else {
			if got := c.Recv(0, 7).(string); got != "hello" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func testSendRecvFIFOPerPair(t *testing.T, sp spawner) {
	const n = 200
	sp(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 3).(int); got != i {
					t.Errorf("out of order: got %d want %d", got, i)
					return
				}
			}
		}
	})
}

func testRecvMatchesTagAndSource(t *testing.T, sp spawner) {
	sp(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, "from0tag1", 9)
			c.Send(2, 2, "from0tag2", 9)
		case 1:
			c.Send(2, 1, "from1tag1", 9)
		case 2:
			// Receive in an order different from arrival order.
			if got := c.Recv(1, 1).(string); got != "from1tag1" {
				t.Errorf("got %q", got)
			}
			if got := c.Recv(0, 2).(string); got != "from0tag2" {
				t.Errorf("got %q", got)
			}
			if got := c.Recv(0, 1).(string); got != "from0tag1" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func testRecvAnyAndTryRecvAny(t *testing.T, sp spawner) {
	sp(4, func(c *Comm) {
		if c.Rank() == 0 {
			got := map[int]bool{}
			for i := 0; i < 3; i++ {
				from, data := c.RecvAny(9)
				if data.(int) != from*10 {
					t.Errorf("from %d: data %v", from, data)
				}
				got[from] = true
			}
			if len(got) != 3 {
				t.Errorf("sources seen: %v", got)
			}
			if _, _, ok := c.TryRecvAny(9); ok {
				t.Error("TryRecvAny found unexpected message")
			}
		} else {
			c.Send(0, 9, c.Rank()*10, 8)
		}
	})
}

func testBarrier(t *testing.T, sp spawner) {
	const size = 8
	var counter int
	var mu sync.Mutex
	sp(size, func(c *Comm) {
		mu.Lock()
		counter++
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		if counter != size {
			t.Errorf("rank %d passed barrier with counter %d", c.Rank(), counter)
		}
		mu.Unlock()
		c.Barrier()
	})
}

func testBcast(t *testing.T, sp spawner) {
	sp(5, func(c *Comm) {
		v := -1
		if c.Rank() == 2 {
			v = 42
		}
		if got := Bcast(c, 2, v, 8); got != 42 {
			t.Errorf("rank %d: Bcast = %d", c.Rank(), got)
		}
	})
}

func testAllgather(t *testing.T, sp spawner) {
	sp(6, func(c *Comm) {
		got := Allgather(c, c.Rank()*c.Rank(), 8)
		for r, v := range got {
			if v != r*r {
				t.Errorf("rank %d: got[%d] = %d", c.Rank(), r, v)
			}
		}
	})
}

func testAllreduce(t *testing.T, sp spawner) {
	const size = 7
	sp(size, func(c *Comm) {
		sum := Allreduce(c, c.Rank()+1, func(a, b int) int { return a + b }, 8)
		want := size * (size + 1) / 2
		if sum != want {
			t.Errorf("rank %d: sum = %d, want %d", c.Rank(), sum, want)
		}
		max := Allreduce(c, c.Rank(), func(a, b int) int {
			if a > b {
				return a
			}
			return b
		}, 8)
		if max != size-1 {
			t.Errorf("rank %d: max = %d", c.Rank(), max)
		}
	})
}

func testAlltoallv(t *testing.T, sp spawner) {
	const size = 5
	sp(size, func(c *Comm) {
		send := make([][]int, size)
		for r := 0; r < size; r++ {
			// rank i sends [i, r] to rank r
			send[r] = []int{c.Rank(), r}
		}
		recv := Alltoallv(c, send, 8)
		for r := 0; r < size; r++ {
			if len(recv[r]) != 2 || recv[r][0] != r || recv[r][1] != c.Rank() {
				t.Errorf("rank %d: recv[%d] = %v", c.Rank(), r, recv[r])
			}
		}
	})
}

func testAlltoallvNoAliasing(t *testing.T, sp spawner) {
	// The results of Alltoallv must not share memory with the caller's send
	// buffers on either transport: mutate every send slice after the call and
	// verify the received values are unaffected (the self-slice used to alias).
	const size = 4
	sp(size, func(c *Comm) {
		send := make([][]int, size)
		for r := 0; r < size; r++ {
			send[r] = []int{c.Rank() * 100, r}
		}
		recv := Alltoallv(c, send, 8)
		c.Barrier() // every rank holds its results before anyone mutates
		for r := range send {
			send[r][0] = -1
			send[r][1] = -1
		}
		c.Barrier() // every mutation has happened before anyone verifies
		for r := 0; r < size; r++ {
			if recv[r][0] != r*100 || recv[r][1] != c.Rank() {
				t.Errorf("rank %d: recv[%d] = %v aliases the sender's buffer", c.Rank(), r, recv[r])
			}
		}
	})
}

func testCollectivesInterleavedWithP2P(t *testing.T, sp spawner) {
	// A collective must not swallow point-to-point messages with user tags.
	sp(3, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, "payload", 7)
		}
		c.Barrier()
		sum := Allreduce(c, 1, func(a, b int) int { return a + b }, 8)
		if sum != 3 {
			t.Errorf("sum = %d", sum)
		}
		if c.Rank() == 1 {
			if got := c.Recv(0, 5).(string); got != "payload" {
				t.Errorf("p2p message lost: %q", got)
			}
		}
	})
}

func testByteAccounting(t *testing.T, sp spawner) {
	// BytesSent meters sender-declared sizes on every transport (PairBytes is
	// the meter that switches to real framed bytes over a wire).
	w := sp(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("xxxx"), 4)
			c.Send(1, 1, []byte("yy"), 2)
		} else {
			c.Recv(0, 1)
			c.Recv(0, 1)
		}
	})
	if got := w.BytesSent(0); got != 6 {
		t.Errorf("rank 0 bytes = %d, want 6", got)
	}
	if got := w.BytesSent(1); got != 0 {
		t.Errorf("rank 1 bytes = %d, want 0", got)
	}
	if w.TotalBytes() != 6 {
		t.Errorf("total = %d", w.TotalBytes())
	}
	w.ResetCounters()
	if w.TotalBytes() != 0 || w.MessagesSent(0) != 0 {
		t.Error("reset failed")
	}
}

func testManyRanksStress(t *testing.T, sp spawner, size int) {
	// Every rank sends to every other rank while doing collectives. At larger
	// sizes this is also the regression test for the mailbox scan-resume path:
	// with quadratic rescans the all-to-all phase degrades sharply.
	sp(size, func(c *Comm) {
		for r := 0; r < size; r++ {
			if r != c.Rank() {
				c.Send(r, 11, c.Rank(), 8)
			}
		}
		sum := 0
		for r := 0; r < size; r++ {
			if r != c.Rank() {
				sum += c.Recv(r, 11).(int)
			}
		}
		want := size*(size-1)/2 - c.Rank()
		if sum != want {
			t.Errorf("rank %d: sum %d want %d", c.Rank(), sum, want)
		}
		total := Allreduce(c, sum, func(a, b int) int { return a + b }, 8)
		if total <= 0 {
			t.Errorf("total %d", total)
		}
	})
}

func testGatherRootOnly(t *testing.T, sp spawner) {
	sp(4, func(c *Comm) {
		got := Gather(c, 1, c.Rank()+100, 8)
		if c.Rank() == 1 {
			for r, v := range got {
				if v != r+100 {
					t.Errorf("got[%d] = %d", r, v)
				}
			}
		} else if got != nil {
			t.Errorf("non-root rank %d received %v", c.Rank(), got)
		}
	})
}

func testConcurrentSendRecvAnyMix(t *testing.T, sp spawner) {
	// Every rank streams tagged messages to every other rank while draining
	// its own mailbox with a mix of RecvAny and TryRecvAny. Exercises the
	// mailbox lock/condvar paths under -race.
	const (
		size = 8
		per  = 50 // messages each rank sends to each peer
	)
	sp(size, func(c *Comm) {
		go func() {
			for i := 0; i < per; i++ {
				for to := 0; to < size; to++ {
					if to != c.Rank() {
						c.Send(to, 9, c.Rank()*1000+i, 8)
					}
				}
			}
		}()
		want := per * (size - 1)
		got := 0
		for got < want {
			if _, _, ok := c.TryRecvAny(9); ok {
				got++
				continue
			}
			c.RecvAny(9)
			got++
		}
		if _, _, ok := c.TryRecvAny(9); ok {
			t.Errorf("rank %d: extra message beyond %d", c.Rank(), want)
		}
	})
}

// In-process drivers for the shared matrix.

func TestSendRecvBasic(t *testing.T)       { testSendRecvBasic(t, spawn) }
func TestSendRecvFIFOPerPair(t *testing.T) { testSendRecvFIFOPerPair(t, spawn) }
func TestRecvMatchesTagAndSource(t *testing.T) {
	testRecvMatchesTagAndSource(t, spawn)
}
func TestRecvAnyAndTryRecvAny(t *testing.T) { testRecvAnyAndTryRecvAny(t, spawn) }
func TestBarrier(t *testing.T)              { testBarrier(t, spawn) }
func TestBcast(t *testing.T)                { testBcast(t, spawn) }
func TestAllgather(t *testing.T)            { testAllgather(t, spawn) }
func TestAllreduce(t *testing.T)            { testAllreduce(t, spawn) }
func TestAlltoallv(t *testing.T)            { testAlltoallv(t, spawn) }
func TestAlltoallvNoAliasing(t *testing.T)  { testAlltoallvNoAliasing(t, spawn) }
func TestCollectivesInterleavedWithP2P(t *testing.T) {
	testCollectivesInterleavedWithP2P(t, spawn)
}
func TestByteAccounting(t *testing.T) { testByteAccounting(t, spawn) }
func TestManyRanksStress(t *testing.T) {
	testManyRanksStress(t, spawn, 32)
	if !testing.Short() {
		testManyRanksStress(t, spawn, 64)
	}
}
func TestGatherRootOnly(t *testing.T) { testGatherRootOnly(t, spawn) }
func TestConcurrentSendRecvAnyMix(t *testing.T) {
	testConcurrentSendRecvAnyMix(t, spawn)
}

func TestResetCountersClearsPairBytes(t *testing.T) {
	// Regression: ResetCounters used to zero bytesSent/msgsSent but leave the
	// per-pair matrix, leaking pre-reset traffic into post-reset measurements.
	w := NewWorld(2)
	w.EnableObs(nil)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, 1, "abc", 3)
	c1.Recv(0, 1)
	if got := w.PairBytes(0, 1); got != 3 {
		t.Fatalf("PairBytes(0,1) = %d, want 3", got)
	}
	w.ResetCounters()
	if got := w.PairBytes(0, 1); got != 0 {
		t.Errorf("PairBytes(0,1) = %d after ResetCounters, want 0", got)
	}
	// The matrix must still meter traffic after the reset.
	c0.Send(1, 1, "defg", 4)
	c1.Recv(0, 1)
	if got := w.PairBytes(0, 1); got != 4 {
		t.Errorf("PairBytes(0,1) = %d after post-reset send, want 4", got)
	}
}

func TestDequeueClearsVacatedSlot(t *testing.T) {
	// Receiving from the middle of the queue compacts it; the vacated tail
	// slot of the backing array must not keep a stale payload reference
	// alive (large LET payloads would otherwise linger until overwritten).
	w := NewWorld(2)
	c0 := w.Comm(0)
	c1 := w.Comm(1)
	c0.Send(1, 1, "first", 5)
	c0.Send(1, 2, "second", 6)
	c0.Send(1, 3, "third", 5)

	if got := c1.Recv(0, 2).(string); got != "second" {
		t.Fatalf("got %q", got)
	}
	mb := w.mail[1]
	mb.mu.Lock()
	if n := len(mb.queue); n != 2 {
		mb.mu.Unlock()
		t.Fatalf("queue length %d, want 2", n)
	}
	tail := mb.queue[:3][2] // vacated slot beyond len, within the backing array
	mb.mu.Unlock()
	if tail.data != nil || tail.tag != 0 || tail.from != 0 {
		t.Errorf("vacated slot retains stale message %+v", tail)
	}

	// Same check for the non-blocking path.
	if _, _, ok := c1.TryRecvAny(1); !ok {
		t.Fatal("TryRecvAny found nothing")
	}
	mb.mu.Lock()
	tail = mb.queue[:2][1]
	mb.mu.Unlock()
	if tail.data != nil {
		t.Errorf("TryRecvAny left stale payload %v in vacated slot", tail.data)
	}
}

func TestScanResumeSkipsScannedPrefix(t *testing.T) {
	// A blocked receiver must not rescan messages it has already rejected.
	// Park a deep prefix of non-matching messages, block a Recv past it, then
	// verify the resume point skips the prefix once new traffic arrives.
	w := NewWorld(2)
	c0 := w.Comm(0)
	c1 := w.Comm(1)
	const prefix = 100
	for i := 0; i < prefix; i++ {
		c0.Send(1, 1, i, 8)
	}
	done := make(chan int, 1)
	go func() {
		done <- c1.Recv(0, 2).(int)
	}()
	// Wait until the receiver has scanned the prefix and parked.
	mb := w.mail[1]
	for {
		mb.mu.Lock()
		parked := len(mb.queue) == prefix
		mb.mu.Unlock()
		if parked {
			break
		}
	}
	c0.Send(1, 2, 777, 8)
	if got := <-done; got != 777 {
		t.Fatalf("Recv = %d, want 777", got)
	}
	mb.mu.Lock()
	if got := mb.scanStart(mb.nextSeq); got != len(mb.queue) {
		t.Errorf("scanStart(nextSeq) = %d, want %d (end of queue)", got, len(mb.queue))
	}
	if got := mb.scanStart(0); got != 0 {
		t.Errorf("scanStart(0) = %d, want 0", got)
	}
	mb.mu.Unlock()
	// The prefix is still receivable in order.
	for i := 0; i < prefix; i++ {
		if got := c1.Recv(0, 1).(int); got != i {
			t.Fatalf("prefix message %d = %d", i, got)
		}
	}
}
