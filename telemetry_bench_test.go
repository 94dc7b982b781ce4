package bonsai

import (
	"context"
	"net"
	"path/filepath"
	"testing"

	"bonsai/internal/obs/telemetry"
)

// benchTelemetryStep times force evaluations with the telemetry plane either
// fully off (no recorder allocated, the nil fast paths) or fully on: span
// recording, per-step metrics, and a live collector scraping the worker's
// telemetry endpoint over a unix socket while the steps run. The delta is the
// end-to-end price of observing a run; the acceptance bar is < 3%.
func benchTelemetryStep(b *testing.B, telemetryOn bool) {
	const ranks = 4
	parts := NewPlummer(32_000, 1, 1, 1, 42)
	s, err := New(Config{
		Ranks:     ranks,
		Theta:     0.4,
		Softening: SofteningForN(len(parts)),
		GravConst: G,
		Tracing:   telemetryOn,
	}, parts)
	if err != nil {
		b.Fatal(err)
	}
	s.ComputeForces() // settle domains before timing

	if telemetryOn {
		sock := filepath.Join(b.TempDir(), "tele.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			b.Fatal(err)
		}
		srv := telemetry.Serve(ln, telemetry.ServerConfig{
			Rec: s.rec, Rank: 0, Ranks: ranks, KernelISA: "bench",
		})
		col := telemetry.NewCollector(telemetry.CollectorConfig{
			Network: "unix", Addrs: []string{sock},
		})
		done := make(chan error, 1)
		go func() { done <- col.Run(context.Background()) }()
		b.Cleanup(func() {
			srv.MarkDone() // lets the collector finish and release the gate
			if err := <-done; err != nil {
				b.Error(err)
			}
			srv.Close()
		})
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeForces()
	}
}

func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchTelemetryStep(b, false) })
	b.Run("collector", func(b *testing.B) { benchTelemetryStep(b, true) })
}
