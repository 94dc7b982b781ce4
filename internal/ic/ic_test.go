package ic

import (
	"math"
	"sort"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/direct"
	"bonsai/internal/units"
	"bonsai/internal/vec"
)

func TestPlummerBasicProperties(t *testing.T) {
	parts := Plummer(5000, 2.0, 1.5, 1.0, 1)
	if len(parts) != 5000 {
		t.Fatal("wrong count")
	}
	if m := body.TotalMass(parts); math.Abs(m-2) > 1e-9 {
		t.Errorf("total mass %v", m)
	}
	if com := body.CenterOfMass(parts); com.Norm() > 1e-9 {
		t.Errorf("COM %v", com)
	}
	var mom vec.V3
	for _, p := range parts {
		mom = mom.Add(p.Vel.Scale(p.Mass))
	}
	if mom.Norm() > 1e-9 {
		t.Errorf("momentum %v", mom)
	}
	for _, p := range parts {
		if !p.Pos.IsFinite() || !p.Vel.IsFinite() {
			t.Fatal("non-finite particle")
		}
	}
}

func TestPlummerHalfMassRadius(t *testing.T) {
	// For a Plummer sphere, r_half = a / sqrt(2^(2/3) - 1) ≈ 1.3048 a.
	a := 2.0
	parts := Plummer(20000, 1, a, 1, 2)
	radii := make([]float64, len(parts))
	for i, p := range parts {
		radii[i] = p.Pos.Norm()
	}
	rh := median(radii)
	want := a / math.Sqrt(math.Pow(2, 2.0/3.0)-1)
	if math.Abs(rh-want)/want > 0.05 {
		t.Errorf("half-mass radius %v, want %v", rh, want)
	}
}

func TestPlummerVirialEquilibrium(t *testing.T) {
	parts := Plummer(4000, 1, 1, 1, 3)
	pos := make([]vec.V3, len(parts))
	mass := make([]float64, len(parts))
	for i, p := range parts {
		pos[i] = p.Pos
		mass[i] = p.Mass
	}
	_, pot, _ := direct.Forces(pos, mass, 0, 0)
	var kin, w float64
	for i, p := range parts {
		kin += 0.5 * p.Mass * p.Vel.Norm2()
		w += 0.5 * p.Mass * pot[i]
	}
	q := 2 * kin / math.Abs(w)
	if q < 0.9 || q > 1.1 {
		t.Errorf("virial ratio 2K/|W| = %v, want ~1", q)
	}
}

func TestPlummerDeterminism(t *testing.T) {
	a := Plummer(100, 1, 1, 1, 7)
	b := Plummer(100, 1, 1, 1, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different particles")
		}
	}
	c := Plummer(100, 1, 1, 1, 8)
	same := 0
	for i := range a {
		if a[i].Pos == c[i].Pos {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical particles")
	}
}

func TestMilkyWayComposition(t *testing.T) {
	model := DefaultMilkyWay()
	const n = 30000
	parts := model.Realize(n, 1, 2)
	if len(parts) != n {
		t.Fatal("count")
	}
	// Equal masses.
	for _, p := range parts[1:] {
		if math.Abs(p.Mass-parts[0].Mass) > 1e-12 {
			t.Fatal("unequal particle masses")
		}
	}
	// Component proportions follow the mass split (≈0.7% bulge, 7.6% disk,
	// 91.6% halo).
	nb, nd, nh := model.Counts(n)
	totalM := model.HaloMass + model.DiskMass + model.BulgeMass
	if r := float64(nb) / float64(n); math.Abs(r-model.BulgeMass/totalM) > 1e-3 {
		t.Errorf("bulge fraction %v", r)
	}
	if r := float64(nd) / float64(n); math.Abs(r-model.DiskMass/totalM) > 1e-3 {
		t.Errorf("disk fraction %v", r)
	}
	if nb+nd+nh != n {
		t.Error("counts do not sum")
	}
	// Total mass in 1e10 Msun units.
	if m := body.TotalMass(parts); math.Abs(m-totalM) > 1e-6*totalM {
		t.Errorf("total mass %v, want %v", m, totalM)
	}
}

func TestMilkyWayDiskIsColdAndFlat(t *testing.T) {
	model := DefaultMilkyWay()
	const n = 30000
	parts := model.Realize(n, 2, 2)
	nb, nd, _ := model.Counts(n)
	disk := parts[nb : nb+nd]

	var sumZ2, sumR float64
	for _, p := range disk {
		sumZ2 += p.Pos.Z * p.Pos.Z
		sumR += math.Hypot(p.Pos.X, p.Pos.Y)
	}
	zrms := math.Sqrt(sumZ2 / float64(len(disk)))
	rMean := sumR / float64(len(disk))
	if zrms > 0.25*rMean {
		t.Errorf("disk not flat: z_rms %v vs mean R %v", zrms, rMean)
	}
	// Scale height: z_rms of sech² is ~1.8 zd.
	if zrms < model.DiskHeight || zrms > 3*model.DiskHeight {
		t.Errorf("z_rms %v inconsistent with scale height %v", zrms, model.DiskHeight)
	}
}

func TestMilkyWayDiskRotates(t *testing.T) {
	model := DefaultMilkyWay()
	const n = 30000
	parts := model.Realize(n, 3, 2)
	nb, nd, _ := model.Counts(n)
	disk := parts[nb : nb+nd]

	// Mean tangential velocity of disk stars near the solar radius must be
	// close to the model's circular velocity there (~180 km/s for the
	// paper's 6e11 halo), and the rotation must be coherent (same sign).
	var vphiSum float64
	var count int
	for _, p := range disk {
		r := math.Hypot(p.Pos.X, p.Pos.Y)
		if r < 7 || r > 9 {
			continue
		}
		vphi := (p.Pos.X*p.Vel.Y - p.Pos.Y*p.Vel.X) / r
		vphiSum += vphi
		count++
	}
	if count < 100 {
		t.Fatalf("too few solar-annulus stars: %d", count)
	}
	vphi := vphiSum / float64(count)
	prof := model.buildProfile()
	vc := prof.Vcirc(8)
	if vc < 150 || vc > 230 {
		t.Errorf("model vc(8kpc) = %v km/s, outside Milky-Way-like range", vc)
	}
	if math.Abs(vphi) < 0.7*vc {
		t.Errorf("disk mean vphi %v too slow vs vc %v", vphi, vc)
	}
}

func TestMilkyWayHaloIsPressureSupported(t *testing.T) {
	model := DefaultMilkyWay()
	const n = 20000
	parts := model.Realize(n, 4, 2)
	nb, nd, _ := model.Counts(n)
	halo := parts[nb+nd:]
	var vphiSum, sigSum float64
	for _, p := range halo {
		r := math.Hypot(p.Pos.X, p.Pos.Y)
		if r < 1e-6 {
			continue
		}
		vphiSum += (p.Pos.X*p.Vel.Y - p.Pos.Y*p.Vel.X) / r
		sigSum += p.Vel.Norm2()
	}
	meanVphi := vphiSum / float64(len(halo))
	rms := math.Sqrt(sigSum / float64(len(halo)))
	if math.Abs(meanVphi) > 0.1*rms {
		t.Errorf("halo rotates: mean vphi %v vs rms %v", meanVphi, rms)
	}
	if rms < 50 || rms > 500 {
		t.Errorf("halo velocity rms %v km/s implausible", rms)
	}
}

func TestMilkyWayDeterministicAndChunkInvariant(t *testing.T) {
	model := DefaultMilkyWay()
	a := model.Realize(9000, 5, 1)
	b := model.Realize(9000, 5, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker count changed particle %d", i)
		}
	}
}

func TestMilkyWayComponentOf(t *testing.T) {
	model := DefaultMilkyWay()
	const n = 10000
	nb, nd, _ := model.Counts(n)
	if model.ComponentOf(0, n) != Bulge {
		t.Error("id 0 should be bulge")
	}
	if model.ComponentOf(int64(nb), n) != Disk {
		t.Error("first disk id misclassified")
	}
	if model.ComponentOf(int64(nb+nd), n) != Halo {
		t.Error("first halo id misclassified")
	}
	if model.ComponentOf(n-1, n) != Halo {
		t.Error("last id should be halo")
	}
}

func TestMilkyWayRotationCurveShape(t *testing.T) {
	// vc must rise from the centre, peak, and decline only gently within the
	// disk region (flat rotation curve).
	prof := DefaultMilkyWay().buildProfile()
	v2 := prof.Vcirc(2)
	v8 := prof.Vcirc(8)
	v15 := prof.Vcirc(15)
	if !(v2 > 0 && v8 > 0 && v15 > 0) {
		t.Fatal("vc not positive")
	}
	if v8 < v15*0.9 || v8 > 2.5*v2 {
		t.Errorf("rotation curve shape off: vc(2)=%v vc(8)=%v vc(15)=%v", v2, v8, v15)
	}
}

func TestMilkyWayVelocitiesBounded(t *testing.T) {
	model := DefaultMilkyWay()
	parts := model.Realize(20000, 6, 2)
	prof := model.buildProfile()
	for _, p := range parts {
		r := p.Pos.Norm()
		vesc := math.Sqrt(2*units.G*prof.MassWithin(prof.r[len(prof.r)-1])/math.Max(r, 0.01)) * 2
		if p.Vel.Norm() > vesc+500 {
			t.Fatalf("particle at r=%v has speed %v (unbound outlier)", r, p.Vel.Norm())
		}
		if !p.Vel.IsFinite() || !p.Pos.IsFinite() {
			t.Fatal("non-finite state")
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func BenchmarkMilkyWay100k(b *testing.B) {
	model := DefaultMilkyWay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Realize(100_000, int64(i), 0)
	}
}

func BenchmarkPlummer100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Plummer(100_000, 1, 1, 1, int64(i))
	}
}
