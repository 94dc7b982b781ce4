// Package bridge couples two dynamical regimes, realizing the outlook of
// the paper's §VII: "galaxy simulations could then be enriched with ...
// massive black holes with their stellar cusps. The gravitational
// interactions around the black holes require the accuracy of a direct
// N-body code ... which ... would be running on the CPU while the tree-code
// would be running on the GPU. Such a combination of physics could be
// realized via the decomposition of physical elements, as is realized in
// AMUSE."
//
// The coupling is the classic BRIDGE scheme (Fujii et al. 2007, the same
// construction AMUSE uses): a second-order operator splitting in which the
// two subsystems evolve internally with their own integrators and exchange
// gravity only through mutual half-step kicks:
//
//	K(dt/2) · D(dt) · K(dt/2)
//
// where K kicks each system with the other's gravitational field (the
// galaxy's field is evaluated by the tree walk at the subsystem's
// positions; the subsystem's field is direct-summed onto the galaxy) and D
// advances the galaxy with one leapfrog tree-code step and the subsystem
// with as many adaptive 4th-order Hermite sub-steps as it needs.
package bridge

import (
	"fmt"
	"math"
	"runtime"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/hermite"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// Config tunes the hybrid integrator.
type Config struct {
	// Theta, Softening and DT govern the tree-integrated galaxy as in
	// sim.Config (defaults 0.4, 0.01 and 1e-3); DT is also the bridge
	// coupling step.
	Theta     float64
	Softening float64
	DT        float64

	// EtaHermite is the accuracy parameter of the subsystem's 4th-order
	// Hermite integrator (default 0.014); DirectSoftening its softening
	// (default 0: fully collisional).
	EtaHermite      float64
	DirectSoftening float64
}

// nLeaf is the galaxy tree's leaf size; its walks use GOMAXPROCS workers.
const nLeaf = 16

func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = 0.4
	}
	if c.Softening <= 0 {
		c.Softening = 0.01
	}
	if c.DT <= 0 {
		c.DT = 1e-3
	}
	if c.EtaHermite <= 0 {
		c.EtaHermite = 0.014
	}
	return c
}

// System is a galaxy (tree-integrated) plus a compact subsystem
// (Hermite-integrated) evolving under their mutual gravity.
type System struct {
	cfg Config

	// Galaxy state.
	gal    []body.Particle
	galAcc []vec.V3
	galPot []float64

	// Compact subsystem.
	Sub *hermite.System

	time  float64
	stats grav.Stats
}

// New builds the hybrid system. The subsystem slices are copied.
func New(galaxy []body.Particle, subPos, subVel []vec.V3, subMass []float64, cfg Config) (*System, error) {
	if len(galaxy) == 0 {
		return nil, fmt.Errorf("bridge: empty galaxy")
	}
	if len(subPos) == 0 {
		return nil, fmt.Errorf("bridge: empty subsystem")
	}
	cfg = cfg.withDefaults()
	b := &System{
		cfg:    cfg,
		gal:    append([]body.Particle(nil), galaxy...),
		galAcc: make([]vec.V3, len(galaxy)),
		galPot: make([]float64, len(galaxy)),
		Sub:    hermite.New(subPos, subVel, subMass, cfg.DirectSoftening, cfg.EtaHermite),
	}
	b.refreshGalaxyForces()
	return b, nil
}

// Time returns the current time.
func (b *System) Time() float64 { return b.time }

// Galaxy returns the current galaxy particles (live slice; do not mutate).
func (b *System) Galaxy() []body.Particle { return b.gal }

// Stats returns cumulative tree-walk interaction counts.
func (b *System) Stats() grav.Stats { return b.stats }

// galaxyTree builds the Morton-ordered octree over the current galaxy and
// returns it along with the permutation-free particle arrays (the tree owns
// reordered copies).
func (b *System) galaxyTree() (*octree.Tree, []int32) {
	pos := make([]vec.V3, len(b.gal))
	mass := make([]float64, len(b.gal))
	for i := range b.gal {
		pos[i] = b.gal[i].Pos
		mass[i] = b.gal[i].Mass
	}
	return octree.BuildFrom(pos, mass, nLeaf, runtime.GOMAXPROCS(0))
}

// refreshGalaxyForces computes galaxy self-gravity (tree) into galAcc.
func (b *System) refreshGalaxyForces() {
	tr, perm := b.galaxyTree()
	groups := tr.MakeGroups(octree.DefaultNGroup)
	eps2 := b.cfg.Softening * b.cfg.Softening
	acc := make([]vec.V3, len(b.gal))
	pot := make([]float64, len(b.gal))
	tr.Walk(groups, tr.Pos, b.cfg.Theta, eps2, acc, pot, runtime.GOMAXPROCS(0), &b.stats)
	// Un-permute: tree index i corresponds to original particle perm[i].
	for i, orig := range perm {
		b.galAcc[orig] = acc[i]
		b.galPot[orig] = pot[i] + b.gal[orig].Mass/b.cfg.Softening
	}
}

// fieldAtSub evaluates the galaxy's tree field at the subsystem positions.
func (b *System) fieldAtSub() []vec.V3 {
	tr, _ := b.galaxyTree()
	targets := append([]vec.V3(nil), b.Sub.Pos...)
	groups := octree.GroupsOf(targets, octree.DefaultNGroup)
	acc := make([]vec.V3, len(targets))
	pot := make([]float64, len(targets))
	tr.Walk(groups, targets, b.cfg.Theta, b.cfg.Softening*b.cfg.Softening, acc, pot, runtime.GOMAXPROCS(0), &b.stats)
	return acc
}

// subFieldOnGalaxy direct-sums the subsystem's gravity onto every galaxy
// particle (the subsystem is small, so this is N_gal × N_sub p-p work).
func (b *System) subFieldOnGalaxy() []vec.V3 {
	eps2 := b.cfg.Softening * b.cfg.Softening
	out := make([]vec.V3, len(b.gal))
	for i := range b.gal {
		var a vec.V3
		for k := range b.Sub.Pos {
			f := grav.PP(b.gal[i].Pos, b.Sub.Pos[k], b.Sub.Mass[k], eps2)
			a = a.Add(f.Acc)
		}
		out[i] = a
	}
	return out
}

// kick applies the mutual half-kick of duration h.
func (b *System) kick(h float64) {
	galKick := b.subFieldOnGalaxy()
	for i := range b.gal {
		b.gal[i].Vel = b.gal[i].Vel.Add(galKick[i].Scale(h))
	}
	subField := b.fieldAtSub()
	dv := make([]vec.V3, len(subField))
	for i := range subField {
		dv[i] = subField[i].Scale(h)
	}
	b.Sub.Kick(dv)
}

// Step advances the hybrid system by one bridge step: K(dt/2) D(dt) K(dt/2).
// Returns the number of Hermite sub-steps the subsystem used.
func (b *System) Step() int {
	dt := b.cfg.DT
	b.kick(dt / 2)

	// Galaxy drift: one internal KDK leapfrog step under self-gravity.
	for i := range b.gal {
		b.gal[i].Vel = b.gal[i].Vel.Add(b.galAcc[i].Scale(dt / 2))
		b.gal[i].Pos = b.gal[i].Pos.Add(b.gal[i].Vel.Scale(dt))
	}
	b.refreshGalaxyForces()
	for i := range b.gal {
		b.gal[i].Vel = b.gal[i].Vel.Add(b.galAcc[i].Scale(dt / 2))
	}

	// Subsystem drift: adaptive Hermite under its own gravity.
	sub := b.Sub.Advance(dt)

	b.kick(dt / 2)
	b.time += dt
	return sub
}

// Run advances n bridge steps.
func (b *System) Run(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
}

// Energy returns the total energy of the coupled system: galaxy self-energy
// (from the tree potentials), subsystem self-energy, cross terms, and all
// kinetic energy.
func (b *System) Energy() (kin, pot float64) {
	for i := range b.gal {
		kin += 0.5 * b.gal[i].Mass * b.gal[i].Vel.Norm2()
		pot += 0.5 * b.gal[i].Mass * b.galPot[i]
	}
	skin, spot := b.Sub.Energy()
	kin += skin
	pot += spot
	// Cross term: galaxy-subsystem interaction energy.
	eps2 := b.cfg.Softening * b.cfg.Softening
	for i := range b.gal {
		for k := range b.Sub.Pos {
			r := math.Sqrt(b.gal[i].Pos.Sub(b.Sub.Pos[k]).Norm2() + eps2)
			pot -= b.gal[i].Mass * b.Sub.Mass[k] / r
		}
	}
	return kin, pot
}
