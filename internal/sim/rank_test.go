package sim

import (
	"math"
	"math/rand"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// TestGroupsBoxIsParticleBounds: the box fullTargets advertises, the union of
// the target groups' boxes, is the particles' bounding box bit for bit — for
// empty and one-particle sets too, and with signed zeros on the box faces.
func TestGroupsBoxIsParticleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{0, 1, 2, 7, 129, 1000, 5000} {
		for trial := 0; trial < 3; trial++ {
			parts := make([]body.Particle, n)
			pos := make([]vec.V3, n)
			mass := make([]float64, n)
			for i := range parts {
				p := vec.V3{X: rng.NormFloat64(), Y: 3 * rng.NormFloat64(), Z: rng.ExpFloat64()}
				switch rng.Intn(8) {
				case 0:
					p.Y = 0
				case 1:
					p.Y = math.Copysign(0, -1)
				}
				parts[i], pos[i], mass[i] = body.Particle{Pos: p, Mass: 1}, p, 1
			}
			tr, _ := octree.BuildFrom(pos, mass, octree.DefaultNLeaf, 1)
			for _, w := range []int{1, 3} {
				got := groupsBox(tr.MakeGroupsScratch(octree.DefaultNGroup, w, nil))
				want := body.Bounds(parts)
				if !same(got.Min.X, want.Min.X) || !same(got.Min.Y, want.Min.Y) || !same(got.Min.Z, want.Min.Z) ||
					!same(got.Max.X, want.Max.X) || !same(got.Max.Y, want.Max.Y) || !same(got.Max.Z, want.Max.Z) {
					t.Fatalf("n=%d trial %d workers %d: groups' box %v, particle bounds %v", n, trial, w, got, want)
				}
			}
		}
	}
}
