package bonsai

import (
	"testing"

	"bonsai/internal/perfmodel"
)

// TestMeasuredCommFeedsPerfmodel closes the loop between the repository's own
// measured exchange costs and the analytic machine model: runs across a
// (ranks, n/rank) grid yield per-step exposed communication times, which
// FitComm turns into the model's network terms (base, p-exponent,
// n-exponent). In-process timings are too noisy to pin exponents to physics,
// so the test asserts the plumbing — a well-conditioned fit with a positive
// base — not the fitted values.
func TestMeasuredCommFeedsPerfmodel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	var samples []perfmodel.CommSample
	for _, ranks := range []int{4, 8, 16} {
		for _, perRank := range []int{400, 800} {
			parts := exchangeBlobs(ranks, perRank, 11)
			s, err := New(Config{
				Ranks: ranks, WorkersPerRank: 1, Theta: 0.4, Softening: 0.05,
			}, parts)
			if err != nil {
				t.Fatal(err)
			}
			s.ComputeForces() // settle domains
			st := s.ComputeForces()
			samples = append(samples, perfmodel.CommSample{
				P:       ranks,
				NPerGPU: float64(perRank),
				Seconds: st.Times.NonHiddenComm.Seconds(),
			})
		}
	}
	base, pExp, nExp, ok := perfmodel.FitComm(samples)
	if !ok {
		t.Fatalf("measured sample grid did not determine the comm law: %+v", samples)
	}
	if base <= 0 {
		t.Fatalf("fitted comm base %v not positive", base)
	}
	m := perfmodel.Titan().WithComm(base, pExp, nExp)
	if m.CommBase != base || m.CommPExp != pExp || m.CommNExp != nExp {
		t.Fatal("fitted terms did not reach the machine model")
	}
}
