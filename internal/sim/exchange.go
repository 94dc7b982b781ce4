package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bonsai/internal/lettree"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
)

const (
	tagLETBase      = 1 << 20        // user-tag space for LET pushes, offset by phase parity
	tagBoundaryBase = tagLETBase + 2 // boundary-tree pushes, offset by phase parity
)

// exchange is one rank's side of one gravity phase's LET exchange, the
// paper's push protocol (§III.B): every rank pushes a small boundary tree to
// every peer; once a peer's tree lands, both sides of the pair run the same
// two MAC predicates on the same two trees (settle), so no handshake is
// needed — a full LET is built and pushed only where our boundary tree cannot
// serve the peer's targets, and expected only where the peer's cannot serve
// ours. Each peer therefore ends up standing for exactly one remote tree, its
// boundary tree or its full LET, banked in the ready table by peer and walked
// by flush as ONE merged interaction list per target group
// (octree.WalkSources): a few long kernel lists instead of p−1 short ones,
// in ascending peer order within a pass.
//
// rank.gravity drives it on one of two schedules that differ in nothing else:
// pipelined (overlap: a builder pool and a receiver goroutine beside the
// compute thread, boundary trees polled between local-walk chunks) or the
// SerialLET oracle (everything on the compute thread, blocking, in ascending
// peer order). All fields belong to the compute thread except where noted.
type exchange struct {
	r    *rank
	t    *walkTargets
	tag  int // this phase's full-LET pushes
	btag int // this phase's boundary-tree pushes

	mine  *lettree.LET   // our boundary tree
	peers []*lettree.LET // the peers' boundary trees by rank; nil until one lands
	bLeft int            // boundary trees still in flight
	owed  int            // full LETs en route to us; final once bLeft == 0

	// Outgoing full LETs. settle queues destinations; builders (and the
	// compute thread, through steal) consume them. steal is the compute
	// thread's view of the queue, nilled once drained — a nil channel never
	// matches in a select — while the builders range over jobs itself.
	// sentBytes[j] is written by whoever built j's LET and read after
	// builders.Wait.
	jobs      chan int
	steal     <-chan int
	builders  sync.WaitGroup
	sentBytes []int64

	// Incoming full LETs (pipelined schedule): the receiver goroutine learns
	// from letCount how many to expect once every boundary tree has settled,
	// and hands them over on arrivals. recvIdle and arrivalNS (obs-epoch ns
	// of each arrival) are the receiver's until arrivals is seen closed.
	letCount  chan int
	arrivals  chan arrival
	recvIdle  time.Duration
	arrivalNS []int64

	// ready[j] is the tree banked for peer j and not walked yet; pass is
	// flush's compaction of it.
	ready     []octree.Source
	pass      []octree.Source
	readyLETs int

	boundaryTime, waitTime, letWalk time.Duration
	walkEndNS                       int64 // obs-epoch ns of local-walk completion
}

// arrival is a received full LET and the rank that pushed it.
type arrival struct {
	from int
	let  *lettree.LET
}

// startExchange opens the phase's exchange: it cuts our boundary tree for
// the targets' advertised box and pushes it to every peer. Sends are eager,
// so every rank posts its pushes before it blocks on anything.
func (r *rank) startExchange(tagPar int, t *walkTargets) *exchange {
	p, me := r.comm.Size(), r.comm.Rank()
	tB := time.Now()
	x := &r.exch
	*x = exchange{
		r:         r,
		t:         t,
		tag:       tagLETBase + tagPar,
		btag:      tagBoundaryBase + tagPar,
		mine:      lettree.BoundaryTree(r.tree, r.cfg.BoundaryDepth, t.box),
		peers:     resize(x.peers, p), // left all-nil by finish, as ready is by flush
		bLeft:     p - 1,
		jobs:      make(chan int, p), // never blocks settle: at most p-1 jobs
		sentBytes: resize(x.sentBytes, p),
		letCount:  make(chan int, 1),
		arrivalNS: x.arrivalNS[:0],
		ready:     resize(x.ready, p),
		pass:      x.pass[:0],
	}
	x.steal = x.jobs
	clear(x.sentBytes)
	for j, nb := 0, x.mine.WireBytes(); j < p; j++ {
		if j != me {
			r.comm.Send(j, x.btag, x.mine, nb)
			r.stats.BoundarySent++
			r.stats.LETBytesSent += int64(nb)
		}
	}
	if x.bLeft == 0 {
		x.allSettled()
	}
	x.boundaryTime = time.Since(tB)
	r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tB, tB.Add(x.boundaryTime), 0)
	return x
}

// overlap starts the pipelined schedule's two helper roles (§III.B.3). The
// builder pool consumes LET destinations as boundary trees settle, so
// construction starts while most peers are still walking. The receiver
// drains the mailbox as messages arrive, so a LET is ready for the compute
// side the moment its sender pushes it.
func (x *exchange) overlap() {
	r := x.r
	p := r.comm.Size()
	for w := 0; w < r.cfg.letBuilders(p-1); w++ {
		x.builders.Add(1)
		go func(w int) {
			defer x.builders.Done()
			for j := range x.jobs {
				x.buildLET(j, obs.LaneBuilder, w)
			}
		}(w)
	}
	x.arrivals = make(chan arrival, p) // never blocks the receiver: at most p-1 LETs arrive
	go func() {
		defer close(x.arrivals)
		for k := <-x.letCount; k > 0; k-- {
			tR := time.Now()
			from, msg := r.comm.RecvAny(x.tag)
			x.recvIdle += time.Since(tR)
			if r.obs != nil {
				now := time.Now()
				r.obs.Span(r.eval, obs.PhaseRecvWait, obs.LaneReceiver, 0, tR, now, int64(from))
				x.recordArrival(now, from, obs.LaneReceiver)
			}
			x.arrivals <- arrival{from, msg.(*lettree.LET)}
		}
	}()
}

// settle runs peer j's two pairwise predicates the moment its boundary tree
// is known: a full LET is owed whenever our boundary tree alone cannot serve
// j's targets, and j's tree either is banked or announces a full LET en
// route. The peers[j] store happens-before the jobs send, so whoever builds
// reads the box safely.
func (x *exchange) settle(j int, bt *lettree.LET) {
	x.peers[j] = bt
	theta := x.r.cfg.Theta
	if !lettree.Sufficient(x.mine, bt.Box, theta) {
		x.r.stats.LETsSent++
		x.jobs <- j
	}
	if lettree.Sufficient(bt, x.mine.Box, theta) {
		x.bank(j, bt, false)
	} else {
		x.owed++
	}
	if x.bLeft--; x.bLeft == 0 {
		x.allSettled()
	}
}

// allSettled closes the build queue and tells the receiver how many full
// LETs to expect: both are known once the last boundary tree has settled.
func (x *exchange) allSettled() {
	close(x.jobs)
	x.letCount <- x.owed
}

// pollBoundary settles one boundary tree if one is waiting in the mailbox,
// without blocking, and reports whether it did.
func (x *exchange) pollBoundary() bool {
	if x.bLeft == 0 {
		return false
	}
	from, msg, ok := x.r.comm.TryRecvAny(x.btag)
	if ok {
		x.settle(from, msg.(*lettree.LET))
	}
	return ok
}

// awaitBoundaries blocks until every boundary tree has landed, settling them
// as they come so the builders are fed without waiting for the slowest peer.
// Until the last one lands we do not know which peers owe us a LET; the
// blocked time is exposed boundary-exchange cost.
func (x *exchange) awaitBoundaries() {
	for x.bLeft > 0 {
		tR := time.Now()
		from, msg := x.r.comm.RecvAny(x.btag)
		x.boundaryLanded(from, msg, tR)
	}
}

// awaitBoundariesInOrder is awaitBoundaries for the SerialLET oracle: one
// blocking receive per peer in ascending rank order, so that nothing it does
// next depends on arrival order.
func (x *exchange) awaitBoundariesInOrder() {
	for j := range x.peers {
		if j != x.r.comm.Rank() {
			tR := time.Now()
			x.boundaryLanded(j, x.r.comm.Recv(j, x.btag), tR)
		}
	}
}

func (x *exchange) boundaryLanded(from int, msg any, since time.Time) {
	d := time.Since(since)
	x.boundaryTime += d
	x.r.obs.Span(x.r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, since, since.Add(d), int64(from))
	x.settle(from, msg.(*lettree.LET))
}

// buildLET builds and pushes the full LET owed to j. BuildFor only reads the
// local tree and j's stored boundary box, so builds are safe alongside each
// other and alongside the compute walks.
func (x *exchange) buildLET(j int, lane obs.Lane, worker int) {
	r := x.r
	var tb time.Time
	if r.obs != nil {
		tb = time.Now()
	}
	let := lettree.BuildFor(r.tree, x.peers[j].Box, r.cfg.Theta, x.t.box)
	r.comm.Send(j, x.tag, let, let.WireBytes())
	x.sentBytes[j] = int64(let.WireBytes())
	if r.obs != nil {
		r.obs.Span(r.eval, obs.PhaseLETBuild, lane, worker, tb, time.Now(), int64(j))
	}
}

// buildQueued runs, on the compute thread, every build still in the queue.
// It needs the queue closed (every boundary tree settled). The pipelined
// schedule ends with it, when no receive is left to overlap with.
func (x *exchange) buildQueued() {
	if x.steal == nil {
		return
	}
	for j := range x.steal {
		x.buildLET(j, obs.LaneCompute, 0)
	}
	x.steal = nil
}

// buildAhead is the SerialLET oracle's send side: every owed LET built and
// pushed on the compute thread ahead of the local walk. That time is exactly
// the communication cost the pipeline hides, so it is booked as such.
func (x *exchange) buildAhead() {
	tS := time.Now()
	x.buildQueued()
	x.waitTime += time.Since(tS)
}

// bank records the one tree that stands for peer from — its boundary tree
// judged sufficient, or its received full LET — for the next pass.
func (x *exchange) bank(from int, l *lettree.LET, full bool) {
	x.ready[from] = l
	if full {
		x.readyLETs++
		x.r.stats.LETsRecv++
	} else {
		x.r.stats.BoundaryUsed++
	}
}

// drain banks, without blocking, every LET the receiver has handed over and
// returns how many.
func (x *exchange) drain() (n int) {
	for x.arrivals != nil {
		select {
		case a, ok := <-x.arrivals:
			if !ok {
				x.arrivals = nil
				return n
			}
			x.bank(a.from, a.let, true)
			n++
		default:
			return n
		}
	}
	return n
}

// wait blocks until the receiver hands over another full LET, banks it and
// returns true; false once no more will come. While blocked the compute
// thread steals queued builds from its own pool — finishing sends sooner
// helps the peers this rank is waiting on.
func (x *exchange) wait() bool {
	for x.arrivals != nil {
		tR := time.Now()
		select {
		case a, ok := <-x.arrivals:
			if !ok {
				x.arrivals = nil
				return false
			}
			d := time.Since(tR)
			x.waitTime += d
			x.r.obs.Span(x.r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), 0)
			x.bank(a.from, a.let, true)
			return true
		case j, ok := <-x.steal:
			if !ok {
				x.steal = nil
			} else {
				x.buildLET(j, obs.LaneCompute, 0)
			}
		}
	}
	return false
}

// recvLETsInOrder is the SerialLET oracle's receive side: a blocking receive
// from every peer whose boundary tree was not banked, in ascending rank
// order. Sends are eager and every rank built before it walked, so the
// receives cannot deadlock.
func (x *exchange) recvLETsInOrder() {
	r := x.r
	for j := range x.ready {
		if j == r.comm.Rank() || x.ready[j] != nil {
			continue
		}
		tR := time.Now()
		msg := r.comm.Recv(j, x.tag)
		d := time.Since(tR)
		x.waitTime += d
		if r.obs != nil {
			r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), int64(j))
			x.recordArrival(tR.Add(d), j, obs.LaneCompute)
		}
		x.bank(j, msg.(*lettree.LET), true)
	}
}

// flush walks every banked tree in one batched pass — a walk:let span if a
// full LET is among them, else walk:boundary, carrying the tree count — and
// empties the ready table.
func (x *exchange) flush() {
	r, t := x.r, x.t
	pass := x.pass[:0]
	for j, s := range x.ready {
		if s != nil {
			pass = append(pass, s)
			x.ready[j] = nil
		}
	}
	if len(pass) == 0 {
		return
	}
	ph := obs.PhaseWalkBound
	if x.readyLETs > 0 {
		ph = obs.PhaseWalkLET
	}
	tW := time.Now()
	forced := octree.WalkSources(pass, t.groups, t.pos, r.cfg.Theta, r.cfg.Eps*r.cfg.Eps,
		t.acc, t.pot, r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
	d := time.Since(tW)
	x.letWalk += d
	r.obs.Span(r.eval, ph, obs.LaneCompute, 0, tW, tW.Add(d), int64(len(pass)))
	r.met.LETWalkHist().ObserveDuration(d)
	if forced != 0 {
		panic(fmt.Sprintf("sim: rank %d: %d remote trees (%d received LETs, the rest boundary trees judged sufficient) forced %d accepts",
			r.comm.Rank(), len(pass), x.readyLETs, forced))
	}
	clear(pass) // the scratch must not keep the peers' trees alive between phases
	x.pass, x.readyLETs = pass[:0], 0
}

// recordArrival notes a full LET's arrival for the hidden-vs-straggler
// analysis: a trace instant plus the epoch timestamp the offsets are computed
// from once the local walk's completion time is known. Called by whichever
// goroutine performed the receive, before the LET is handed to the compute
// side.
func (x *exchange) recordArrival(at time.Time, from int, lane obs.Lane) {
	x.r.obs.Mark(x.r.eval, obs.PhaseArrive, lane, at, int64(from))
	x.arrivalNS = append(x.arrivalNS, x.r.obs.Since(at))
}

// markWalkDone stamps local-walk completion, the instant LET arrival offsets
// (the Fig. 5 hidden-vs-straggler signal) are measured against.
func (x *exchange) markWalkDone() {
	if x.r.obs == nil {
		return
	}
	now := time.Now()
	x.r.obs.Mark(x.r.eval, obs.PhaseWalkDone, obs.LaneCompute, now, 0)
	x.walkEndNS = x.r.obs.Since(now)
}

// finish closes the phase once every remote tree has been walked (wait
// returned false, so the receiver has exited and its fields are ours): it
// completes our own sends and books the phase's bytes, times and arrivals.
func (x *exchange) finish() {
	r := x.r
	x.buildQueued()
	tW := time.Now()
	x.builders.Wait()
	d := time.Since(tW)
	x.waitTime += d
	r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tW, tW.Add(d), -1)
	for _, b := range x.sentBytes {
		r.stats.LETBytesSent += b
	}

	// Arrival offsets: arrival time minus local-walk completion, negative
	// when communication was fully hidden behind the walk, positive when the
	// compute side had to wait (a straggler sender).
	if n := len(x.arrivalNS); n > 0 {
		worst := int64(math.MinInt64)
		for _, a := range x.arrivalNS {
			off := a - x.walkEndNS
			r.met.LETArrivalHist().Observe(off)
			worst = max(worst, off)
		}
		r.stats.WorstArrival = time.Duration(worst)
		r.stats.ArrivalsSeen = n
	}

	clear(x.peers) // as above: nothing of the peers' outlives the phase
	r.stats.Times.GravLET = x.letWalk
	r.stats.Times.NonHiddenComm = x.boundaryTime + x.waitTime
	r.stats.RecvIdle = x.recvIdle
}
