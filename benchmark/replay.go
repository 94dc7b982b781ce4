package main

import (
	"time"

	"bonsai"
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/octree"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// The facade's defaults for the knobs no workload sets.
const (
	defaultNLeaf         = octree.DefaultNLeaf
	defaultNGroup        = octree.DefaultNGroup
	defaultBoundaryDepth = lettree.DefaultBoundaryDepth
)

// replayRank is one rank's side of a replayed force evaluation.
type replayRank struct {
	member   []int32 // indices into the global particle slice
	pos      []vec.V3
	mass     []float64
	order    []int32 // tree order -> index into member
	tree     *octree.Tree
	groups   []octree.Group
	box      vec.Box
	boundary *lettree.LET
	inbox    [][]byte // marshalled full LET per sending peer, nil when none
	acc      []vec.V3
	pot      []float64
}

// replayResult is what one replayed evaluation produced and counted.
type replayResult struct {
	Acc           []bonsai.Vec3 // accelerations in input order, G applied
	Local, Remote grav.Stats    // interactions of the local and the LET walks
	Ranks         int           // ranks that own particles
	Pairs         int           // directed rank pairs among them
	Sufficient    int           // pairs served by the boundary tree alone
	LETBytes      int64         // marshalled full LETs
	BoundaryBytes int64         // one boundary tree per rank
	ForcedAccepts int64
	Seconds       float64 // wall-clock of the replay.eval span
}

// replay performs one force evaluation by hand on one goroutine, layer call by
// layer call, the way rank.gravity's serial path orders them: per rank keys ->
// sort -> build -> properties -> groups -> boundary tree, then per pair the
// symmetric sufficiency check and LET build/marshal, then the local walk and a
// walk of every peer's boundary tree or unmarshalled LET. Every layer call is
// a child span of a replay.rank span under one replay.eval span with the given
// id.
func replay(tr *tracer, id int, parts []bonsai.Particle, owners []int, cfg bonsai.Config) replayResult {
	p := max(cfg.Ranks, 1)
	theta, eps2 := cfg.Theta, cfg.Softening*cfg.Softening
	ranks := make([]replayRank, p)
	global := vec.EmptyBox()
	for i := range ranks {
		ranks[i].box = vec.EmptyBox()
	}
	for i, pt := range parts {
		r := &ranks[owners[i]]
		v := v3(pt.Pos)
		r.member = append(r.member, int32(i))
		r.pos = append(r.pos, v)
		r.mass = append(r.mass, pt.Mass)
		r.box = r.box.Extend(v)
		global = global.Extend(v)
	}
	var res replayResult
	t0 := time.Now()
	eval := tr.begin("replay.eval", id, -1)
	layer := func(name string, parent int, fn func()) {
		s := tr.begin(name, id, parent)
		fn()
		tr.end(s)
	}
	eachRank := func(fn func(r *replayRank, me, sp int)) {
		for me := range ranks {
			if len(ranks[me].member) == 0 {
				continue
			}
			sp := tr.begin("replay.rank", id, eval)
			fn(&ranks[me], me, sp)
			tr.end(sp)
		}
	}

	grid := keys.NewGrid(global)
	eachRank(func(r *replayRank, _, sp int) {
		n := len(r.member)
		kv := make([]psort.KV, n)
		layer("keys.encode", sp, func() {
			for i, v := range r.pos {
				kv[i] = psort.KV{Key: uint64(grid.MortonOf(v)), Idx: int32(i)}
			}
		})
		layer("psort.sort", sp, func() { psort.Sort(kv, 1) })
		layer("octree.build", sp, func() {
			ks := make([]keys.Key, n)
			pos, mass := make([]vec.V3, n), make([]float64, n)
			r.order = make([]int32, n)
			for i, e := range kv {
				ks[i], pos[i], mass[i], r.order[i] = keys.Key(e.Key), r.pos[e.Idx], r.mass[e.Idx], e.Idx
			}
			r.pos, r.mass = pos, mass
			r.tree = octree.BuildStructure(ks, pos, mass, grid, defaultNLeaf)
		})
		layer("octree.props", sp, r.tree.ComputeProperties)
		layer("octree.groups", sp, func() { r.groups = r.tree.MakeGroups(defaultNGroup) })
		layer("lettree.boundary", sp, func() {
			r.boundary = lettree.BoundaryTree(r.tree, defaultBoundaryDepth, r.box)
		})
		r.inbox = make([][]byte, p)
		r.acc, r.pot = make([]vec.V3, n), make([]float64, n)
		res.BoundaryBytes += int64(r.boundary.WireBytes())
		res.Ranks++
	})

	eachRank(func(r *replayRank, me, sp int) {
		for j := range ranks {
			peer := &ranks[j]
			if j == me || peer.boundary == nil {
				continue
			}
			res.Pairs++
			var ok bool
			layer("lettree.sufficient", sp, func() { ok = lettree.Sufficient(r.boundary, peer.box, theta) })
			if ok {
				res.Sufficient++
				continue
			}
			var let *lettree.LET
			layer("lettree.buildfor", sp, func() { let = lettree.BuildFor(r.tree, peer.box, theta, r.box) })
			layer("lettree.marshal", sp, func() { peer.inbox[me] = let.Marshal() })
			res.LETBytes += int64(len(peer.inbox[me]))
		}
	})

	eachRank(func(r *replayRank, me, sp int) {
		layer("octree.walk", sp, func() {
			r.tree.Walk(r.groups, r.pos, theta, eps2, r.acc, r.pot, 1, &res.Local)
		})
		for j := range ranks {
			let := ranks[j].boundary
			if j == me || let == nil {
				continue
			}
			if buf := r.inbox[j]; buf != nil {
				layer("lettree.unmarshal", sp, func() {
					var err error
					if let, err = lettree.Unmarshal(buf); err != nil {
						panic(err) // the bytes were marshalled a moment ago by this process
					}
				})
			}
			layer("lettree.walk", sp, func() {
				res.ForcedAccepts += lettree.Walk(let, r.groups, r.pos, theta, eps2, r.acc, r.pot, 1, &res.Remote)
			})
		}
	})
	tr.end(eval)
	res.Seconds = time.Since(t0).Seconds()

	g := gravConst(cfg)
	res.Acc = make([]bonsai.Vec3, len(parts))
	for i := range ranks {
		r := &ranks[i]
		for t, a := range r.acc {
			res.Acc[r.member[r.order[t]]] = bonsai.Vec3{X: g * a.X, Y: g * a.Y, Z: g * a.Z}
		}
	}
	return res
}
