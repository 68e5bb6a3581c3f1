// Command barrierlib manages an on-disk library of tuned barriers (§VIII's
// indexed store): it lists entries, tunes-and-stores barriers for simulated
// platforms, and verifies stored entries still synchronise.
//
// Usage:
//
//	barrierlib list  [-dir DIR]
//	barrierlib tune  [-dir DIR] -cluster quad|hex -p N [-placement round-robin|block] [-seed N]
//	barrierlib check [-dir DIR] -cluster quad|hex -p N [-placement round-robin|block] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/library"
	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/run"
	"topobarrier/internal/topo"
)

func main() {
	fs := flag.NewFlagSet("barrierlib", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "barrierlib", "library directory")
		cluster   = fs.String("cluster", "quad", "machine: quad or hex")
		p         = fs.Int("p", 16, "number of ranks")
		placement = fs.String("placement", "round-robin", "rank placement")
		seed      = fs.Uint64("seed", 1, "fabric noise seed")
	)
	verb := "list"
	args := os.Args[1:]
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		verb = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	lib, err := library.Open(*dir)
	if err != nil {
		fatal(err)
	}

	switch verb {
	case "list":
		entries, err := lib.List()
		if err != nil {
			fatal(err)
		}
		if len(entries) == 0 {
			fmt.Println("library is empty")
			return
		}
		for _, e := range entries {
			fmt.Printf("%-50s P=%-4d predicted %.1fµs\n", e.Platform, e.P, e.PredictedCost*1e6)
		}
	case "tune", "check":
		w, platform, err := worldFor(*cluster, *placement, *p, *seed)
		if err != nil {
			fatal(err)
		}
		cfg := probe.Default()
		cfg.Replicate = true
		plan, cached, err := lib.GetOrTune(w, platform, cfg, core.Options{})
		if err != nil {
			fatal(err)
		}
		src := "tuned now"
		if cached {
			src = "loaded from library"
		}
		if verb == "check" {
			if err := run.Validate(w, plan.Func(), 0.5, []int{0, *p - 1}); err != nil {
				fatal(fmt.Errorf("stored barrier failed validation: %w", err))
			}
			fmt.Printf("%s (%s): synchronization verified\n", platform, src)
			return
		}
		m, err := run.Measure(w, plan.Func(), 3, 15)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (%s): %.1fµs/barrier\n", platform, src, m.Mean*1e6)
	default:
		fatal(fmt.Errorf("unknown verb %q (want list, tune or check)", verb))
	}
}

func worldFor(cluster, placement string, p int, seed uint64) (*mpi.World, string, error) {
	spec, err := topo.ClusterByName(cluster)
	if err != nil {
		return nil, "", err
	}
	pl, err := topo.PlacementByName(placement)
	if err != nil {
		return nil, "", err
	}
	fab, err := fabric.New(spec, pl, p, fabric.GigEParams(seed))
	if err != nil {
		return nil, "", err
	}
	platform := fmt.Sprintf("%s, %s", spec.Name, pl.Name())
	return mpi.NewWorld(fab), platform, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "barrierlib:", err)
	os.Exit(1)
}
