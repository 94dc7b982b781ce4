package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist2MonotoneUnderInclusion(t *testing.T) {
	// If box A contains box B, then for any point p: dist(A,p) <= dist(B,p).
	// This is the property that makes the LET sufficiency check conservative
	// (testing against the enclosing domain box can only open MORE cells).
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		center := V3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		ha := V3{1 + r.Float64(), 1 + r.Float64(), 1 + r.Float64()}
		a := Box{Min: center.Sub(ha), Max: center.Add(ha)}
		// B: random sub-box of A.
		f1 := V3{r.Float64(), r.Float64(), r.Float64()}
		f2 := V3{r.Float64(), r.Float64(), r.Float64()}
		lo := V3{
			a.Min.X + f1.X*(a.Max.X-a.Min.X),
			a.Min.Y + f1.Y*(a.Max.Y-a.Min.Y),
			a.Min.Z + f1.Z*(a.Max.Z-a.Min.Z),
		}
		sz := a.Max.Sub(lo)
		b := Box{Min: lo, Max: lo.Add(V3{f2.X * sz.X, f2.Y * sz.Y, f2.Z * sz.Z})}
		for i := 0; i < 20; i++ {
			p := V3{5 * r.NormFloat64(), 5 * r.NormFloat64(), 5 * r.NormFloat64()}
			if a.Dist2(p) > b.Dist2(p)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
