// IMDB efficiency example (the workload behind the paper's Figure 3):
// generate the six-table IMDB-shaped benchmark at a small size, integrate
// it with regular FD and with Fuzzy FD, and report per-phase timings. The
// benchmark is equi-join (values are consistent), so the fuzzy value
// matcher does the full candidate check but finds nothing to rewrite — its
// cost is the pure overhead Figure 3 shows to be negligible.
//
// Run with: go run ./examples/imdb
package main

import (
	"fmt"
	"log"

	"fuzzyfd"
	"fuzzyfd/internal/datagen"
)

func main() {
	tables := datagen.IMDB(datagen.IMDBConfig{Seed: 42, TotalTuples: 3000})
	fmt.Printf("IMDB benchmark: %d input tuples across %d tables\n", datagen.TotalRows(tables), len(tables))
	for _, t := range tables {
		fmt.Printf("  %-18s %5d rows\n", t.Name, t.NumRows())
	}
	fmt.Println()

	regular, err := fuzzyfd.Integrate(tables, fuzzyfd.WithEquiJoin())
	if err != nil {
		log.Fatal(err)
	}
	fuzzy, err := fuzzyfd.Integrate(tables)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-20s rows=%5d  fd=%8v  total=%8v\n",
		"Regular FD (ALITE)", regular.Table.NumRows(), regular.Timings.FD, regular.Timings.Total)
	fmt.Printf("%-20s rows=%5d  fd=%8v  total=%8v  (match phase: %v, %d rewrites)\n",
		"Fuzzy FD", fuzzy.Table.NumRows(), fuzzy.Timings.FD, fuzzy.Timings.Total,
		fuzzy.Timings.Match, fuzzy.MatchStats.Rewrites)

	overhead := float64(fuzzy.Timings.Total-regular.Timings.Total) / float64(regular.Timings.Total) * 100
	fmt.Printf("\nfuzzy overhead over regular FD: %+.1f%% — the Figure 3 story\n", overhead)
}
