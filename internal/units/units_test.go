package units

import (
	"math"
	"testing"
)

func TestTimeConversionRoundTrip(t *testing.T) {
	for _, gyr := range []float64{0.1, 1, 6, 8} {
		if got := Gyr(FromGyr(gyr)); math.Abs(got-gyr) > 1e-12 {
			t.Errorf("round trip %v Gyr -> %v", gyr, got)
		}
	}
}

func TestGValueGivesCorrectCircularVelocity(t *testing.T) {
	// A 1e11 Msun enclosed mass at 8 kpc gives vc = sqrt(GM/r) ≈ 232 km/s,
	// the Milky Way's rotation speed near the Sun.
	m := 1e11 / MassUnitMsun
	vc := math.Sqrt(G * m / 8.0)
	if vc < 225 || vc > 240 {
		t.Errorf("vc = %v km/s, want ~232", vc)
	}
}

func TestSofteningForN(t *testing.T) {
	// At the paper's N the softening is 1 pc.
	if eps := SofteningForN(51.2e9); math.Abs(eps-0.001) > 1e-6 {
		t.Errorf("eps(51.2e9) = %v kpc, want 0.001", eps)
	}
	// Smaller N → larger softening, monotonically.
	e1 := SofteningForN(1e5)
	e2 := SofteningForN(1e6)
	e3 := SofteningForN(1e7)
	if !(e1 > e2 && e2 > e3) {
		t.Errorf("softening not monotone: %v %v %v", e1, e2, e3)
	}
	// N^{-1/3} scaling: 1000x fewer particles → 10x larger softening.
	if ratio := SofteningForN(1e6) / SofteningForN(1e9); math.Abs(ratio-10) > 1e-9 {
		t.Errorf("softening scaling ratio = %v, want 10", ratio)
	}
}

func TestMinTimeStep(t *testing.T) {
	// Paper: eps = 1 pc → dt = 75,000 yr = 7.5e-5 Myr... i.e. 7.5e-5 Gyr.
	dt := MinTimeStepForEps(0.001)
	gyr := Gyr(dt)
	if math.Abs(gyr-7.5e-5) > 2e-6 {
		t.Errorf("dt(1pc) = %v Gyr, want ~7.5e-5", gyr)
	}
}
