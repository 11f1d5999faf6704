// Command zmesh-bench regenerates the evaluation tables and figures of the
// zMesh reproduction (see EXPERIMENTS.md for the experiment index). Each
// experiment prints the rows/series the corresponding paper artefact
// reports.
//
//	zmesh-bench -all                 # run the full suite at default scale
//	zmesh-bench -exp F3              # one experiment
//	zmesh-bench -exp F3 -res 128     # smaller/faster datasets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", fmt.Sprintf("experiment id, one of %v", experiments.ExperimentIDs()))
	all := flag.Bool("all", false, "run every experiment")
	res := flag.Int("res", 256, "solver resolution for dataset generation")
	depth := flag.Int("depth", 4, "maximum AMR refinement depth")
	problems := flag.String("problems", "", "comma-separated problem subset (default: all)")
	fields := flag.String("fields", "", "comma-separated field subset (default: dens,pres,velx)")
	flag.Parse()

	if !*all && *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.DefaultConfig()
	cfg.Resolution = *res
	cfg.MaxDepth = *depth
	if *problems != "" {
		cfg.Problems = strings.Split(*problems, ",")
	}
	if *fields != "" {
		cfg.Fields = strings.Split(*fields, ",")
	}
	suite := experiments.NewSuite(cfg)

	ids := []string{*exp}
	if *all {
		ids = experiments.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tbl, err := suite.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zmesh-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
