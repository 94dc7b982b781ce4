package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "step_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	noisy := []float64{0.8, 1.0, 1.2, 0.9, 1.3}
	for _, c := range []struct {
		name       string
		base, cand []float64
		spec       metricSpec
		want       string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"5% slower is inside the bound", steady, scale(steady, 1.05), lower, verdictOK},
		{"20% slower", steady, scale(steady, 1.20), lower, verdictRegressed},
		{"20% faster", steady, scale(steady, 0.80), lower, verdictOK},
		{"20% lower rate", steady, scale(steady, 0.80), higher, verdictRegressed},
		{"20% higher rate", steady, scale(steady, 1.20), higher, verdictOK},
		{"spread over the bound is unresolved, not unchanged", noisy, noisy, lower, verdictUnresolved},
		{"noisy but every run better", noisy, scale(noisy, 0.5), lower, verdictOK},
		{"noisy and worse stays unresolved", noisy, scale(noisy, 1.5), lower, verdictUnresolved},
		{"single runs fall back to the bound", []float64{1}, []float64{1.2}, lower, verdictRegressed},
	} {
		if got, _, _ := judge(c.base, c.cand, c.spec); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = f * x
	}
	return out
}

func TestSameHostIgnoresOnlyTheCommit(t *testing.T) {
	a := hostBlock{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24", KernelISA: "avx2+fma", Commit: "aaa"}
	b := a
	b.Commit = "bbb"
	if !sameHost(a, b) {
		t.Error("a different commit must stay comparable")
	}
	b.NumCPU = 64
	if sameHost(a, b) {
		t.Error("a different core count must not be comparable")
	}
}
