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
// by flush, once every tree is in, as ONE merged interaction list per target
// group (octree.WalkSources) in ascending peer order: a few long kernel lists
// instead of p−1 short ones, summed in an order arrival timing cannot change.
//
// rank.gravity drives it with a builder pool beside the compute thread
// (overlap). The compute thread is the only one that takes from the mailbox:
// it polls between local-walk chunks and blocks only once the local walk is
// done. All fields belong to the compute thread except where noted.
type exchange struct {
	r    *rank
	t    *walkTargets
	tag  int // this phase's full-LET pushes
	btag int // this phase's boundary-tree pushes

	mine  *lettree.LET   // our boundary tree
	peers []*lettree.LET // the peers' boundary trees by rank; nil until one lands
	bLeft int            // boundary trees still in flight
	owed  int            // full LETs en route to us; final once bLeft == 0

	// Outgoing full LETs. settle queues destinations and closes the queue
	// once the last boundary tree has settled; the builders and, once it waits, the compute thread consume
	// it. sentBytes[j] is written by whoever built j's LET and read after
	// builders.Wait.
	jobs      chan int
	builders  sync.WaitGroup
	sentBytes []int64

	// arrivalNS holds the obs-epoch ns at which each full LET was taken from
	// the mailbox (traced runs only).
	arrivalNS []int64

	// ready[j] is the tree banked for peer j; pass is flush's compaction of it.
	ready     []octree.Source
	pass      []octree.Source
	readyLETs int

	boundaryTime, recvIdle, letWalk time.Duration
	walkEndNS                       int64 // obs-epoch ns of local-walk completion
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
		arrivalNS: x.arrivalNS[:0],
		ready:     resize(x.ready, p),
		pass:      x.pass[:0],
	}
	clear(x.sentBytes)
	for j, nb := 0, x.mine.WireBytes(); j < p; j++ {
		if j != me {
			r.comm.Send(j, x.btag, x.mine, nb)
			r.stats.BoundarySent++
			r.stats.BytesSent += int64(nb)
		}
	}
	if x.bLeft == 0 {
		close(x.jobs) // no peers: nothing to build
	}
	x.boundaryTime = time.Since(tB)
	r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tB, tB.Add(x.boundaryTime), 0)
	return x
}

// overlap starts the builder pool (§III.B.3): it consumes LET destinations
// as boundary trees settle, so construction starts while most peers are
// still walking. The paper's communication thread has no counterpart: the
// transport fills the mailbox without one, and the compute thread takes from
// it.
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
		close(x.jobs) // every build is known, and owed is final
	}
}

// poll settles every boundary tree and banks every full LET waiting in the
// mailbox, without blocking, and returns how many LETs it banked.
func (x *exchange) poll() (lets int) {
	for x.bLeft > 0 {
		from, msg, ok := x.r.comm.TryRecvAny(x.btag)
		if !ok {
			break
		}
		x.settle(from, msg.(*lettree.LET))
	}
	for x.bLeft > 0 || x.readyLETs < x.owed {
		from, msg, ok := x.r.comm.TryRecvAny(x.tag)
		if !ok {
			break
		}
		x.take(from, msg)
		lets++
	}
	return lets
}

// awaitBoundaries blocks until every boundary tree has landed, settling them
// as they come so the builders are fed without waiting for the slowest peer.
// Until the last one lands we do not know which peers owe us a LET; the
// blocked time is exposed boundary-exchange cost.
func (x *exchange) awaitBoundaries() {
	for x.bLeft > 0 {
		tR := time.Now()
		from, msg := x.r.comm.RecvAny(x.btag)
		d := time.Since(tR)
		x.boundaryTime += d
		x.r.obs.Span(x.r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tR, tR.Add(d), int64(from))
		x.settle(from, msg.(*lettree.LET))
	}
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

// awaitLETs banks every full LET still owed; it needs every boundary tree
// settled, so owed is final and the build queue closed. Before each blocking
// receive the compute thread builds one queued LET, if one is waiting:
// finishing sends sooner helps the peers this rank is waiting on, and as only
// settle queues builds, none can be queued while it blocks. The blocked time
// is the rank's receive idle, exposed communication cost.
func (x *exchange) awaitLETs() {
	for x.readyLETs < x.owed {
		if j, ok := <-x.jobs; ok {
			x.buildLET(j, obs.LaneCompute, 0)
		}
		tR := time.Now()
		from, msg := x.r.comm.RecvAny(x.tag)
		d := time.Since(tR)
		x.recvIdle += d
		x.r.obs.Span(x.r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), int64(from))
		x.take(from, msg)
	}
}

// take banks a full LET just taken from the mailbox and, when tracing, notes
// its arrival for the hidden-vs-straggler analysis: a trace instant plus the
// epoch timestamp the offsets are computed from once the local walk's
// completion time is known.
func (x *exchange) take(from int, msg any) {
	if r := x.r; r.obs != nil {
		now := time.Now()
		r.obs.Mark(r.eval, obs.PhaseArrive, obs.LaneCompute, now, int64(from))
		x.arrivalNS = append(x.arrivalNS, r.obs.Since(now))
	}
	x.bank(from, msg.(*lettree.LET), true)
}

// bank records the one tree that stands for peer from — its boundary tree
// judged sufficient, or its received full LET — for the pass.
func (x *exchange) bank(from int, l *lettree.LET, full bool) {
	x.ready[from] = l
	if full {
		x.readyLETs++
		x.r.stats.LETsRecv++
	} else {
		x.r.stats.BoundaryUsed++
	}
}

// flush walks every banked tree in one batched pass, in ascending peer order
// — a walk:let span if a full LET is among them, else walk:boundary, carrying
// the tree count — and empties the ready table.
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
	forced := octree.WalkSources(pass, t.groups, t.pos, r.cfg.Theta, r.cfg.Softening*r.cfg.Softening,
		t.acc, t.pot, r.cfg.WorkersPerRank, &r.stats.Stats)
	d := time.Since(tW)
	x.letWalk += d
	r.obs.Span(r.eval, ph, obs.LaneCompute, 0, tW, tW.Add(d), int64(len(pass)))
	if forced != 0 {
		panic(fmt.Sprintf("sim: rank %d: %d remote trees (%d received LETs, the rest boundary trees judged sufficient) forced %d accepts",
			r.comm.Rank(), len(pass), x.readyLETs, forced))
	}
	clear(pass) // the scratch must not keep the peers' trees alive between phases
	x.pass, x.readyLETs = pass[:0], 0
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

// finish closes the phase once every remote tree has been walked: it
// completes our own sends and books the phase's bytes, times and arrivals.
func (x *exchange) finish() {
	r := x.r
	for j := range x.jobs {
		x.buildLET(j, obs.LaneCompute, 0)
	}
	tW := time.Now()
	x.builders.Wait()
	d := time.Since(tW)
	r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tW, tW.Add(d), -1)
	for _, b := range x.sentBytes {
		r.stats.BytesSent += b
	}

	// Arrival offsets: arrival time minus local-walk completion, negative
	// when communication was fully hidden behind the walk, positive when the
	// compute side had to wait (a straggler sender).
	if n := len(x.arrivalNS); n > 0 {
		worst := int64(math.MinInt64)
		for _, a := range x.arrivalNS {
			off := a - x.walkEndNS
			worst = max(worst, off)
		}
		r.stats.WorstArrival = time.Duration(worst)
		r.stats.ArrivalsSeen = n
	}

	clear(x.peers) // as above: nothing of the peers' outlives the phase
	r.stats.Times.GravLET = x.letWalk
	r.stats.Times.NonHiddenComm = x.boundaryTime + x.recvIdle + d
	r.stats.RecvIdle = x.recvIdle
}
