package bridge

import (
	"math"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/ic"
	"bonsai/internal/vec"
)

// galaxyAndBH builds a small Plummer galaxy plus a central massive "black
// hole" with a tight orbiting star (the stellar-cusp miniature).
func galaxyAndBH(nGal int, seed int64) ([]body.Particle, []vec.V3, []vec.V3, []float64) {
	gal := ic.Plummer(nGal, 1, 1, 1, seed)
	// BH of 5% of the galaxy mass with one cusp star in a tight circular
	// orbit (separation well below the galaxy's softening scale).
	const mbh = 0.05
	const mstar = 1e-4
	const sep = 0.02
	v := math.Sqrt((mbh + mstar) / sep) // relative circular speed
	subPos := []vec.V3{{}, {X: sep}}
	subVel := []vec.V3{{}, {Y: v}}
	// Centre-of-momentum for the pair.
	subVel[0] = vec.V3{Y: -v * mstar / (mbh + mstar)}
	subVel[1] = vec.V3{Y: v * mbh / (mbh + mstar)}
	return gal, subPos, subVel, []float64{mbh, mstar}
}

func TestBridgeConservesTotalEnergy(t *testing.T) {
	gal, sp, sv, sm := galaxyAndBH(1000, 1)
	b, err := New(gal, sp, sv, sm, Config{Theta: 0.3, Softening: 0.05, DT: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	k0, p0 := b.Energy()
	e0 := k0 + p0
	b.Run(50)
	k1, p1 := b.Energy()
	if drift := math.Abs((k1 + p1 - e0) / e0); drift > 5e-3 {
		t.Errorf("hybrid energy drift %v over 50 bridge steps", drift)
	}
}

func TestCuspBinaryStaysBoundAndTight(t *testing.T) {
	// The whole point of the hybrid scheme: the BH-star binary at
	// separations far below the tree softening survives, because it is
	// integrated by the Hermite code, not the softened tree.
	gal, sp, sv, sm := galaxyAndBH(800, 2)
	b, err := New(gal, sp, sv, sm, Config{Theta: 0.4, Softening: 0.05, DT: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	sep0 := b.Sub.Pos[1].Sub(b.Sub.Pos[0]).Norm()
	b.Run(40)
	sep1 := b.Sub.Pos[1].Sub(b.Sub.Pos[0]).Norm()
	if sep1 > 3*sep0 || sep1 < sep0/3 {
		t.Errorf("cusp binary separation changed from %v to %v", sep0, sep1)
	}
	// Binary internal energy must remain negative (bound).
	kin, pot := b.Sub.Energy()
	if kin+pot >= 0 {
		t.Errorf("cusp binary unbound: E = %v", kin+pot)
	}
}

func TestSubsystemFeelsGalaxy(t *testing.T) {
	// Place the subsystem off-centre: the galaxy must accelerate it inward
	// (the bridge kick works in the tree→Hermite direction).
	gal := ic.Plummer(2000, 1, 1, 1, 3)
	subPos := []vec.V3{{X: 2}}
	subVel := []vec.V3{{}}
	b, err := New(gal, subPos, subVel, []float64{1e-5}, Config{Softening: 0.05, DT: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(20)
	if b.Sub.Pos[0].X >= 2 {
		t.Errorf("test mass did not fall toward the galaxy: x=%v", b.Sub.Pos[0].X)
	}
}

func TestGalaxyFeelsSubsystem(t *testing.T) {
	// A very massive subsystem particle placed beside a light galaxy must
	// pull the galaxy's centre of mass toward it (Hermite→tree direction).
	gal := ic.Plummer(500, 1e-3, 0.5, 1, 4)
	subPos := []vec.V3{{X: 5}}
	subVel := []vec.V3{{}}
	b, err := New(gal, subPos, subVel, []float64{10}, Config{Softening: 0.05, DT: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	x0 := body.CenterOfMass(b.Galaxy()).X
	b.Run(20)
	x1 := body.CenterOfMass(b.Galaxy()).X
	if x1 <= x0 {
		t.Errorf("galaxy COM did not move toward the massive companion: %v -> %v", x0, x1)
	}
}

func TestHermiteSubStepsReported(t *testing.T) {
	gal, sp, sv, sm := galaxyAndBH(300, 5)
	b, err := New(gal, sp, sv, sm, Config{Softening: 0.05, DT: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Step(); n < 1 {
		t.Errorf("expected at least one Hermite sub-step, got %d", n)
	}
	if b.Time() != 2e-3 {
		t.Errorf("time %v", b.Time())
	}
	if st := b.Stats(); st.PP == 0 && st.PC == 0 {
		t.Error("no tree interactions recorded")
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, []vec.V3{{}}, []vec.V3{{}}, []float64{1}, Config{}); err == nil {
		t.Error("expected error for empty galaxy")
	}
	gal := ic.Plummer(10, 1, 1, 1, 6)
	if _, err := New(gal, nil, nil, nil, Config{}); err == nil {
		t.Error("expected error for empty subsystem")
	}
}
