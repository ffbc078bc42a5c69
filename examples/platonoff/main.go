// Platonoff: the Section 7.2 comparison. On Example 5 the macro-first
// strategy (detect broadcasts in the source, constrain the mapping to
// preserve them, then minimize the rest) keeps one partial broadcast
// per time step, while the paper's local-first strategy reaches a
// communication-free mapping — macro-communications should optimize
// *residual* communications, not create them.
package main

import (
	"fmt"
	"log"

	"repro/internal/affine"
	"repro/internal/alignment"
	"repro/internal/baselines"
	"repro/internal/experiments"
)

func main() {
	prog := affine.Example5()
	fmt.Print(prog)
	fmt.Println()

	plat, err := baselines.Platonoff(prog, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("macro-first (Platonoff): %d communications preserved as broadcasts, %d local, %d residual\n",
		len(plat.Preserved), plat.LocalCount(), plat.ResidualCount())

	ours, err := alignment.Align(nil, prog, 2, alignment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local-first (ours):      %d local, %d residual\n",
		ours.LocalCount(), len(ours.ResidualComms()))
	fmt.Printf("allocations: M_S = %v, M_a = %v, M_b = %v\n\n",
		ours.Alloc["S"], ours.Alloc["a"], ours.Alloc["b"])

	for _, steps := range []int{10, 100, 1000} {
		r, err := experiments.Example5(32, steps, 256)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatExample5(r, steps))
	}

	// the greedy baseline for context
	greedy, err := baselines.FeautrierGreedy(prog, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvolume-greedy baseline: %d local, %d residual\n",
		greedy.LocalCount(), greedy.ResidualCount())
}
