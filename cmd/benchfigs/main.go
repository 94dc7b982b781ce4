// Command benchfigs regenerates every table and figure of the paper's
// evaluation at reproduction scale, printing the paper's published values
// next to this repository's measured or modeled results.
//
//	benchfigs -all                 # everything (default)
//	benchfigs -fig1                # force-kernel performance bars
//	benchfigs -fig2                # PH-SFC domain decomposition
//	benchfigs -fig3 -outdir out    # Milky Way science run (writes PGM maps)
//	benchfigs -fig4                # weak scaling + comm surface (measured + model)
//	benchfigs -table1 -table2      # hardware and time-breakdown tables (+ strong scaling)
//	benchfigs -flops -tts -peak    # op counts, time-to-solution, peak
//
// Measured results come from in-process runs (goroutine ranks over the
// message-passing substrate); paper-scale results come from the calibrated
// analytic model in internal/perfmodel. See DESIGN.md for the substitution
// rationale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchfigs: ")

	var (
		all    = flag.Bool("all", false, "run every section")
		fig1   = flag.Bool("fig1", false, "Fig. 1: force kernel performance")
		fig2   = flag.Bool("fig2", false, "Fig. 2: PH-SFC domain decomposition")
		fig3   = flag.Bool("fig3", false, "Fig. 3: Milky Way structure (runs a scaled simulation)")
		fig4   = flag.Bool("fig4", false, "Fig. 4: weak scaling")
		table1 = flag.Bool("table1", false, "Table I: hardware")
		table2 = flag.Bool("table2", false, "Table II: time breakdown")
		flops  = flag.Bool("flops", false, "§VI.A: operation counting conventions")
		tts    = flag.Bool("tts", false, "§VI.C: time to solution")
		peak   = flag.Bool("peak", false, "§VI.D: peak performance")
		ablate = flag.Bool("ablations", false, "DESIGN.md §5 design-choice sweeps")

		outdir    = flag.String("outdir", "benchfigs_out", "output directory for images/data")
		fig3N     = flag.Int("fig3-n", 20_000, "particles for the Fig. 3 run")
		fig3Steps = flag.Int("fig3-steps", 60, "steps for the Fig. 3 run")
		fig4N     = flag.Int("fig4-n", 8_000, "particles per rank for measured weak scaling")
		maxRanks  = flag.Int("max-ranks", 8, "largest in-process rank count for measured sections")
	)
	flag.Parse()

	if !(*fig1 || *fig2 || *fig3 || *fig4 || *table1 || *table2 || *flops || *tts || *peak || *ablate) {
		*all = true
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}

	if *all || *table1 {
		printTable1()
	}
	if *all || *flops {
		printFlops()
	}
	if *all || *fig1 {
		printFig1()
	}
	if *all || *fig2 {
		printFig2(*outdir)
	}
	runs := scalingRuns{}
	if *all || *fig4 {
		printFig4Measured(runs, *fig4N, *maxRanks)
		printFig4Model()
	}
	if *all || *table2 {
		printTable2Measured(runs, *fig4N, *maxRanks)
		printTable2Model()
	}
	if *all || *tts {
		printTimeToSolution()
	}
	if *all || *peak {
		printPeak()
	}
	if *all || *ablate {
		printAblations(40_000)
	}
	if *all || *fig3 {
		runFig3(*outdir, *fig3N, *fig3Steps)
	}
	fmt.Println()
	fmt.Println("done.")
}

func section(title string) {
	fmt.Println()
	fmt.Println("================================================================================")
	fmt.Println(title)
	fmt.Println("================================================================================")
}
