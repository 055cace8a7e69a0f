// Command experiments regenerates the paper's tables and figures;
// -list prints the experiment index.
//
// Usage:
//
//	experiments -list
//	experiments -run fig6
//	experiments -run all -scale 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "", "experiment id, or 'all'")
		list  = flag.Bool("list", false, "list experiment ids")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		scale = flag.Float64("scale", 1.0, "workload scale factor")
		dir   = flag.String("dir", "", "workspace directory (default: temp)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.List() {
			fmt.Println(id)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "experiments: -run <id> or -list required")
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Dir: *dir}
	ids := []string{*run}
	if *run == "all" {
		ids = experiments.List()
	}
	failed := 0
	for _, id := range ids {
		t0 := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(res.Format())
		fmt.Printf("(%s in %s)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
