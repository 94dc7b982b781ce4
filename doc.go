// Package bonsai is a Go reproduction of the gravitational Barnes–Hut
// tree-code Bonsai as described in "24.77 Pflops on a Gravitational
// Tree-Code to Simulate the Milky Way Galaxy with 18600 GPUs" (Bédorf,
// Gaburov, Fujii, Nitadori, Ishiyama & Portegies Zwart, SC 2014).
//
// The package exposes the full simulation pipeline of the paper:
//
//   - Milky Way and Plummer initial-condition generators with deterministic,
//     parallel, on-the-fly generation (NewMilkyWay, NewPlummer);
//   - a distributed N-body simulation (New, Simulation.Step) in which every
//     simulated MPI rank runs the paper's per-step pipeline — Peano–Hilbert
//     sampling domain decomposition, Morton sort, octree build, multipole
//     computation, and a local tree-walk overlapped with the push-based
//     Local Essential Tree (LET) exchange — over an in-process
//     message-passing runtime;
//   - per-step statistics matching the paper's Table II (phase times,
//     p-p/p-c interaction counts, achieved flop rates under the paper's
//     23/65-flop counting conventions);
//   - the science analyses of the paper's §IV (surface-density maps, bar
//     strength, solar-neighbourhood velocity structure);
//   - a direct-summation baseline (DirectForces) for accuracy control;
//   - binary snapshots for restart and offline analysis;
//   - the paper's §VII outlook: a hybrid in which a massive black hole and
//     its stellar cusp are integrated by a 4th-order Hermite direct code
//     coupled to the tree AMUSE-style (NewHybrid).
//
// Galaxies are simulated the way the paper runs them, as §I "type 2"
// models: halo, disk and bulge are all live particles.
//
// The public data types are the engine's own, re-exported as aliases:
// Config is the simulation's configuration, Particle and Vec3 its particle
// record and vector, GalaxyModel and GalaxyComponent the Milky Way model of
// the IC generator, Filter, DensityMap and VelocityHist the analysis types,
// and HybridConfig the bridge's configuration. Particle sets therefore pass
// between the generators, the simulation, the analyses and the snapshot files
// without a copy, and StepStats and PhaseTimes are the step record every rank
// writes and the metrics stream carries. The package's own types are the run
// handles (Simulation, NodeSimulation, World, Hybrid).
//
// Scale-dependent aspects of the paper (K20X GPUs, Cray interconnects,
// 18600 nodes) are reproduced by substrates under internal/: a SIMT device
// model (internal/device) and an analytic machine model
// (internal/perfmodel) regenerate Fig. 1, Fig. 4 and Table II; see
// DESIGN.md and the cmd/benchfigs tool.
//
// Quick start:
//
//	parts := bonsai.NewPlummer(100_000, 1, 1, 1, 42)
//	s, err := bonsai.New(bonsai.Config{Ranks: 4, Theta: 0.4}, parts)
//	if err != nil { ... }
//	stats := s.Step()
//	fmt.Println(stats.AppGflops)
package bonsai
