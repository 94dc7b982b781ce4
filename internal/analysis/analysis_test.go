package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/vec"
)

// axisymmetricDisk builds a cold axisymmetric rotating disk.
func axisymmetricDisk(n int, seed int64) []body.Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]body.Particle, n)
	for i := range parts {
		r := 10 * math.Sqrt(rng.Float64())
		phi := 2 * math.Pi * rng.Float64()
		vc := 200.0
		parts[i] = body.Particle{
			Pos:  vec.V3{X: r * math.Cos(phi), Y: r * math.Sin(phi), Z: 0.1 * rng.NormFloat64()},
			Vel:  vec.V3{X: -vc * math.Sin(phi), Y: vc * math.Cos(phi), Z: 0},
			Mass: 1,
			ID:   int64(i),
		}
	}
	return parts
}

// barredDisk elongates the distribution along a position angle.
func barredDisk(n int, angle float64, seed int64) []body.Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]body.Particle, n)
	sin, cos := math.Sin(angle), math.Cos(angle)
	for i := range parts {
		a := 6 * rng.NormFloat64() // long axis
		b := 1.5 * rng.NormFloat64()
		parts[i] = body.Particle{
			Pos:  vec.V3{X: a*cos - b*sin, Y: a*sin + b*cos, Z: 0.1 * rng.NormFloat64()},
			Mass: 1,
			ID:   int64(i),
		}
	}
	return parts
}

func TestSurfaceDensityConservesMass(t *testing.T) {
	parts := axisymmetricDisk(20000, 1)
	m := SurfaceDensity(parts, nil, 12, 64)
	if math.Abs(m.Total()-20000) > 1 {
		t.Errorf("map total %v, want 20000", m.Total())
	}
}

func TestSurfaceDensityCentrallyConcentrated(t *testing.T) {
	parts := axisymmetricDisk(20000, 2)
	m := SurfaceDensity(parts, nil, 12, 64)
	center := m.At(32, 32)
	corner := m.At(1, 1)
	if center <= corner {
		t.Errorf("center %v not denser than corner %v", center, corner)
	}
}

func TestSurfaceDensityFilter(t *testing.T) {
	parts := axisymmetricDisk(1000, 3)
	all := SurfaceDensity(parts, nil, 12, 32).Total()
	half := SurfaceDensity(parts, func(p body.Particle) bool { return p.ID%2 == 0 }, 12, 32).Total()
	if half <= all/3 || half >= all*2/3 {
		t.Errorf("filtered mass %v of %v", half, all)
	}
}

func TestRenderPGMWellFormed(t *testing.T) {
	parts := axisymmetricDisk(5000, 4)
	m := SurfaceDensity(parts, nil, 12, 16)
	var buf bytes.Buffer
	if err := m.RenderPGM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P2\n16 16\n255\n") {
		t.Fatalf("bad header: %q", out[:20])
	}
	fields := strings.Fields(out)
	// P2, w, h, maxval + 256 pixels
	if len(fields) != 4+256 {
		t.Fatalf("pixel count %d", len(fields)-4)
	}
}

func TestBarStrengthAxisymmetricIsLow(t *testing.T) {
	parts := axisymmetricDisk(50000, 5)
	a2, _ := BarStrength(parts, nil, 10)
	if a2 > 0.02 {
		t.Errorf("axisymmetric disk A2 = %v, want ~0", a2)
	}
}

func TestBarStrengthDetectsBarAndPhase(t *testing.T) {
	for _, angle := range []float64{0, 0.5, 1.2, -0.9} {
		parts := barredDisk(50000, angle, 6)
		a2, phase := BarStrength(parts, nil, 10)
		if a2 < 0.3 {
			t.Errorf("angle %v: bar A2 = %v, want strong", angle, a2)
		}
		// Phase is modulo π.
		want := math.Mod(angle+math.Pi/2, math.Pi) - math.Pi/2
		d := phase - want
		for d > math.Pi/2 {
			d -= math.Pi
		}
		for d < -math.Pi/2 {
			d += math.Pi
		}
		if math.Abs(d) > 0.05 {
			t.Errorf("angle %v: recovered phase %v (diff %v)", angle, phase, d)
		}
	}
}

func TestPatternSpeed(t *testing.T) {
	// A bar rotating at 0.3 rad/time-unit measured 1 unit apart.
	p0, p1 := 0.2, 0.5
	if got := PatternSpeed(p0, p1, 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("pattern speed %v", got)
	}
	// Wrap-around: phase jumps by nearly π.
	if got := PatternSpeed(1.4, -1.5, 1); math.Abs(got-(math.Pi-2.9)) > 1e-9 {
		t.Errorf("unwrapped speed %v, want %v", got, math.Pi-2.9)
	}
}

func TestSolarNeighborhoodCapturesRotation(t *testing.T) {
	parts := axisymmetricDisk(200000, 7)
	sun := vec.V3{X: 8}
	h := SolarNeighborhood(parts, nil, sun, 0.5, 100, 30)
	if h.Stars < 50 {
		t.Fatalf("too few stars selected: %d", h.Stars)
	}
	if math.Abs(h.MeanRotation-200) > 10 {
		t.Errorf("mean rotation %v, want ~200", h.MeanRotation)
	}
	if math.Abs(h.MeanVR) > 10 {
		t.Errorf("mean vR %v, want ~0", h.MeanVR)
	}
	// All counted stars are near the histogram centre for a cold disk.
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		t.Fatal("empty histogram")
	}
	// Central bin should be the densest region.
	mid := h.N / 2
	if h.Count(mid, mid) == 0 {
		t.Error("cold disk: expected stars at the histogram centre")
	}
}

func TestRadialProfileDecreases(t *testing.T) {
	parts := axisymmetricDisk(50000, 8)
	prof := RadialProfile(parts, nil, 12, 12)
	// The uniform-in-area disk has flat Σ out to the edge; compare an
	// exponential: build one quickly.
	rng := rand.New(rand.NewSource(9))
	exp := make([]body.Particle, 50000)
	for i := range exp {
		r := -2.5 * math.Log(1-rng.Float64()) // ~exponential with scale 2.5
		phi := 2 * math.Pi * rng.Float64()
		exp[i] = body.Particle{Pos: vec.V3{X: r * math.Cos(phi), Y: r * math.Sin(phi)}, Mass: 1}
	}
	profE := RadialProfile(exp, nil, 12, 12)
	if !(profE[0] > profE[3] && profE[3] > profE[8]) {
		t.Errorf("exponential profile not decreasing: %v", profE)
	}
	_ = prof
}

func TestDiskThicknessAndDispersion(t *testing.T) {
	parts := axisymmetricDisk(20000, 10)
	if z := DiskThickness(parts, nil); z < 0.05 || z > 0.2 {
		t.Errorf("thickness %v, want ~0.1", z)
	}
	// Cold disk: radial dispersion ~0.
	if s := VelocityDispersion(parts, nil, 5, 10); s > 1 {
		t.Errorf("cold disk sigmaR = %v", s)
	}
	// Heat it.
	rng := rand.New(rand.NewSource(11))
	for i := range parts {
		p := parts[i].Pos
		r := math.Hypot(p.X, p.Y)
		if r == 0 {
			continue
		}
		vr := 30 * rng.NormFloat64()
		parts[i].Vel = parts[i].Vel.Add(vec.V3{X: vr * p.X / r, Y: vr * p.Y / r})
	}
	s := VelocityDispersion(parts, nil, 5, 10)
	if s < 20 || s > 40 {
		t.Errorf("heated disk sigmaR = %v, want ~30", s)
	}
}

func TestEmptySelections(t *testing.T) {
	if a2, _ := BarStrength(nil, nil, 10); a2 != 0 {
		t.Error("empty bar strength")
	}
	h := SolarNeighborhood(nil, nil, vec.V3{X: 8}, 0.5, 100, 10)
	if h.Stars != 0 {
		t.Error("empty histogram should have no stars")
	}
	if d := DiskThickness(nil, nil); d != 0 {
		t.Error("empty thickness")
	}
	if s := VelocityDispersion(nil, nil, 0, 10); s != 0 {
		t.Error("empty dispersion")
	}
}

func TestRotationCurveRecoversDiskSpeed(t *testing.T) {
	parts := axisymmetricDisk(30000, 12)
	rc := RotationCurve(parts, nil, 10, 5)
	for b, v := range rc {
		if math.Abs(v-200) > 5 {
			t.Errorf("bin %d: vc = %v, want 200", b, v)
		}
	}
	// Empty selection yields zeros.
	zero := RotationCurve(parts, func(body.Particle) bool { return false }, 10, 3)
	for _, v := range zero {
		if v != 0 {
			t.Error("empty filter should give zero curve")
		}
	}
}

func TestToomreQOfConstructedDisk(t *testing.T) {
	// A flat-rotation-curve disk (vc=200) with known sigmaR and surface
	// density: Q = sigmaR*kappa/(3.36 G Sigma) with kappa = sqrt(2)*vc/R.
	rng := rand.New(rand.NewSource(13))
	const n = 200000
	parts := make([]body.Particle, n)
	const sigmaR = 30.0
	for i := range parts {
		r := 4 + 8*rng.Float64() // uniform in radius 4..12
		phi := 2 * math.Pi * rng.Float64()
		vr := sigmaR * rng.NormFloat64()
		vc := 200.0
		sin, cos := math.Sin(phi), math.Cos(phi)
		parts[i] = body.Particle{
			Pos:  vec.V3{X: r * cos, Y: r * sin},
			Vel:  vec.V3{X: vr*cos - vc*sin, Y: vr*sin + vc*cos},
			Mass: 1.0 / n,
		}
	}
	// Measured in annulus [7,9]: Sigma = mass density there.
	var mass float64
	for i := range parts {
		r := math.Hypot(parts[i].Pos.X, parts[i].Pos.Y)
		if r >= 7 && r <= 9 {
			mass += parts[i].Mass
		}
	}
	sigma := mass / (math.Pi * (81 - 49))
	kappa := math.Sqrt2 * 200 / 8
	const g = 100.0
	want := sigmaR * kappa / (3.36 * g * sigma)

	got := ToomreQ(parts, nil, g, 7, 9)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("ToomreQ = %v, want ~%v", got, want)
	}
	if q := ToomreQ(nil, nil, g, 7, 9); q != 0 {
		t.Errorf("empty Q = %v", q)
	}
}
