package bonsai

import (
	"bonsai/internal/bridge"
	"bonsai/internal/vec"
)

// HybridConfig configures a Hybrid system (see NewHybrid): Theta, Softening
// and DT govern the tree-integrated galaxy as in Config, DT is also the
// bridge coupling step, and EtaHermite and DirectSoftening tune the
// subsystem's 4th-order Hermite integrator.
type HybridConfig = bridge.Config

// Hybrid couples a tree-integrated galaxy with a small collisional
// subsystem (massive black holes and their stellar cusps) integrated by a
// 4th-order Hermite direct N-body code — the multi-physics combination the
// paper's §VII describes as the natural extension of Bonsai, realized
// AMUSE-style with second-order bridge kicks.
type Hybrid struct {
	inner *bridge.System
}

// NewHybrid builds the coupled system. Subsystem particles keep their IDs
// but live outside the tree: the tree never sees them except through the
// bridge kicks, so their mutual orbits resolve scales far below the tree
// softening.
func NewHybrid(galaxy, subsystem []Particle, cfg HybridConfig) (*Hybrid, error) {
	subPos := make([]vec.V3, len(subsystem))
	subVel := make([]vec.V3, len(subsystem))
	subMass := make([]float64, len(subsystem))
	for i, p := range subsystem {
		subPos[i] = p.Pos
		subVel[i] = p.Vel
		subMass[i] = p.Mass
	}
	inner, err := bridge.New(galaxy, subPos, subVel, subMass, cfg)
	if err != nil {
		return nil, err
	}
	return &Hybrid{inner: inner}, nil
}

// Step advances one bridge step and returns the number of Hermite sub-steps
// the subsystem needed.
func (h *Hybrid) Step() int { return h.inner.Step() }

// Run advances n bridge steps.
func (h *Hybrid) Run(n int) { h.inner.Run(n) }

// Time returns the current time.
func (h *Hybrid) Time() float64 { return h.inner.Time() }

// Galaxy returns a copy of the current tree-integrated particles.
func (h *Hybrid) Galaxy() []Particle { return append([]Particle(nil), h.inner.Galaxy()...) }

// Subsystem returns the current state of the Hermite-integrated particles,
// in their original order.
func (h *Hybrid) Subsystem() []Particle {
	sub := h.inner.Sub
	out := make([]Particle, sub.N())
	for i := 0; i < sub.N(); i++ {
		out[i] = Particle{Pos: sub.Pos[i], Vel: sub.Vel[i], Mass: sub.Mass[i], ID: int64(i)}
	}
	return out
}

// Energy returns the total kinetic and potential energy of the coupled
// system (galaxy self-energy, subsystem self-energy, and cross terms).
func (h *Hybrid) Energy() (kin, pot float64) { return h.inner.Energy() }
