// Command tracebarrier records the message-level execution of one barrier on
// a simulated cluster, merges it into one timeline (internal/critpath) and
// prints the realized critical path, the model's predicted chain for schedule
// algorithms, and the per-link blame table — the §VI validation story at
// single-message granularity. -trace-out writes the timeline as Chrome
// trace-event JSON.
//
// With -net it validates against the *real* transport instead of the
// simulator: it forms a loopback TCP mesh (internal/netmpi), probes the
// paper's O/L topological profile over the live links, predicts per-stage
// completion times from that profile, executes the barrier with per-stage
// span tracing, and prints a predicted-vs-observed drift table — the §VI
// comparison closed against an actual network execution. -trace-out
// writes the traced execution as Chrome trace-event JSON for
// chrome://tracing or Perfetto in either mode.
//
// Usage:
//
//	tracebarrier -cluster quad|hex -p N [-placement round-robin|block]
//	             [-alg tree|linear|dissemination|mpi|hybrid] [-seed N]
//	             [-trace-out file.json]
//	tracebarrier -net -p N [-alg tree|linear|dissemination|hybrid]
//	             [-iters N] [-warmup N] [-probe-iters N] [-workers N]
//	             [-adaptive K] [-profile-cache DIR] [-drift-tol F] [-ranks]
//	             [-recommend F] [-critical-path]
//	             [-net-deadline D] [-net-dial-timeout D] [-trace-out file.json]
//	             [-transport tcp|hybrid] [-colocate nodes=K|"0-3,4-7"]
//
// Profiling runs as edge-colored parallel rounds (⌊P/2⌋ disjoint pairs per
// round, -workers bounds the overlap), stops each pair adaptively once its
// minimum RTT is stable for -adaptive samples, and with -profile-cache reuses
// a fingerprinted profile from a previous run, re-validating a sampled
// subset of links against -drift-tol before trusting it. -transport hybrid
// forms the mesh with shared-memory rings between co-located ranks (from
// -colocate, or derived from -cluster/-placement), so the probed profile
// and the drift table show the real intra/inter-node class gap.
//
// -recommend F follows the drift table with one read-only pass of the online
// retuning controller (internal/retune) at drift tolerance F: if the
// observed-vs-predicted drift exceeds F it re-probes the stale links and
// prints the schedule the closed loop would hot-swap in, without touching
// the running mesh.
//
// -critical-path merges the last traced execution's per-message send/recv
// spans into one causally-consistent timeline (internal/critpath), extracts
// the *realized* critical path of the barrier, and prints it against the
// model's predicted chain with a per-link blame table — the message-level
// answer to "which link made this barrier slow".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/retune"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
	"topobarrier/internal/topo"
)

func main() {
	var (
		cluster   = flag.String("cluster", "quad", "machine: quad or hex (simulator mode)")
		p         = flag.Int("p", 16, "number of ranks")
		placement = flag.String("placement", "round-robin", "rank placement (simulator mode)")
		alg       = flag.String("alg", "mpi", "barrier: tree, linear, dissemination, mpi, hybrid")
		seed      = flag.Uint64("seed", 1, "fabric noise seed (simulator mode)")

		netRun     = flag.Bool("net", false, "validate against a real loopback TCP mesh instead of the simulator")
		iters      = flag.Int("iters", 5, "traced barrier executions; observed times are per-cell minima (-net)")
		warmup     = flag.Int("warmup", 3, "untimed warmup barriers (-net)")
		probeIters = flag.Int("probe-iters", 8, "max ping-pongs per ordered rank pair when probing the profile (-net)")
		workers    = flag.Int("workers", 0, "concurrently probed pairs per round; 0 = all disjoint pairs of the round (-net)")
		adaptive   = flag.Int("adaptive", 3, "stop a probed pair once its min RTT is stable for K samples; 0 = fixed iterations (-net)")
		cacheDir   = flag.String("profile-cache", "", "fingerprinted profile cache directory; warm profiles skip the probe (-net)")
		driftTol   = flag.Float64("drift-tol", 0.5, "relative O+L drift that marks a cached link stale during revalidation; 0 trusts the cache blindly (-net)")
		perRank    = flag.Bool("ranks", false, "print the per-rank drift rows, not just the per-stage maxima (-net)")
		recommend  = flag.Float64("recommend", 0, "after the drift table, run one offline retune check at this drift tolerance and print the recommended schedule; 0 disables (-net)")
		critPath   = flag.Bool("critical-path", false, "merge the last traced execution into one timeline and print its realized critical path, the predicted chain, and per-link blame (-net)")
		netDead    = flag.Duration("net-deadline", 5*time.Second, "per-receive deadline on the mesh (-net)")
		netDial    = flag.Duration("net-dial-timeout", 5*time.Second, "mesh formation budget (-net)")
		traceOut   = flag.String("trace-out", "", "write the final traced execution as Chrome trace-event JSON")
		transport  = flag.String("transport", "tcp", "mesh transport: tcp, or hybrid (shared-memory rings between co-located ranks) (-net)")
		colocate   = flag.String("colocate", "", "co-location spec for -transport hybrid: \"nodes=K\" or rank groups \"0-3,4-7\"; default derives from -cluster/-placement (-net)")
	)
	flag.Parse()

	if *netRun {
		nodes, err := netmpi.ColocationFromFlags(*transport, *colocate, *cluster, *placement, *p)
		if err != nil {
			fatal(err)
		}
		popts := probeCLIOptions{
			iters: *probeIters, workers: *workers, adaptive: *adaptive,
			cacheDir: *cacheDir, driftTol: *driftTol,
		}
		if err := runNetDrift(*alg, *p, nodes, *iters, *warmup, popts, *perRank, *recommend, *critPath, *netDead, *netDial, *traceOut); err != nil {
			fatal(err)
		}
		return
	}
	if *recommend > 0 {
		fatal(fmt.Errorf("-recommend judges a live mesh; it requires -net"))
	}
	if *critPath {
		fatal(fmt.Errorf("-critical-path merges live mesh traces; it requires -net (the simulator always prints its critical path)"))
	}

	spec, err := topo.ClusterByName(*cluster)
	if err != nil {
		fatal(err)
	}
	pl, err := topo.PlacementByName(*placement)
	if err != nil {
		fatal(err)
	}
	fab, err := fabric.New(spec, pl, *p, fabric.GigEParams(*seed))
	if err != nil {
		fatal(err)
	}

	// s is the executed schedule, stage for stage; the mpi baseline has none
	// and gets no predicted chain.
	var (
		fn run.Func
		s  *sched.Schedule
	)
	switch *alg {
	case "mpi":
		fn = baseline.Tree
	case "tree":
		s = sched.Tree(*p)
	case "linear":
		s = sched.Linear(*p)
	case "dissemination":
		s = sched.Dissemination(*p)
	case "hybrid":
		cfg := probe.Default()
		cfg.Replicate = true
		tuned, err := core.ProfileAndTune(mpi.NewWorld(fab), cfg, core.Options{})
		if err != nil {
			fatal(err)
		}
		fn, s = tuned.Func(), tuned.Schedule().DropEmptyStages()
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg))
	}
	if fn == nil {
		fn = run.ScheduleFunc(s)
	}

	tl, elapsed, err := critpath.Simulate(fab, fn)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s barrier, %d ranks on %s (%s): %.1fµs, %d messages\n\n",
		*alg, *p, spec.Name, pl.Name(), elapsed*1e6, len(tl.All))
	fmt.Print(critpath.Analyze(tl, predict.New(fab.TrueProfile()), s))
	if *traceOut != "" {
		if err := telemetry.WriteChromeTraceEventsFile(*traceOut, tl.Events); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}

// probeCLIOptions bundles the profiling flags of -net mode.
type probeCLIOptions struct {
	iters, workers, adaptive int
	cacheDir                 string
	driftTol                 float64
}

// meshBanner describes the formed mesh: link counts per transport and, for a
// hybrid mesh, its transport signature.
func meshBanner(peers []*netmpi.Peer, p int, nodes []int) string {
	if nodes == nil {
		return fmt.Sprintf("loopback TCP mesh up: %d ranks, %d connections", p, p*(p-1)/2)
	}
	shm := 0
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if peers[i].TransportOf(j) == netmpi.TransportShm {
				shm++
			}
		}
	}
	return fmt.Sprintf("hybrid mesh up: %d ranks, %d shm links + %d tcp connections (%s)",
		p, shm, p*(p-1)/2-shm, peers[0].TransportSignature())
}

// runNetDrift is the real-transport §VI validation: probe → predict →
// execute traced → compare, all against one live loopback mesh.
func runNetDrift(alg string, p int, nodes []int, iters, warmup int, popts probeCLIOptions, perRank bool, recommend float64, critPath bool, deadline, dialTimeout time.Duration, traceOut string) error {
	if iters <= 0 || warmup < 0 {
		return fmt.Errorf("need positive -iters and non-negative -warmup")
	}
	tracer := telemetry.NewTracer()
	dialOpts := []netmpi.Option{netmpi.WithTracer(tracer)}
	var reg *telemetry.Registry
	if recommend > 0 {
		// The recommendation reuses the online controller, which observes
		// drift through the mesh's barrier histograms.
		reg = telemetry.NewRegistry()
		dialOpts = append(dialOpts, netmpi.WithTelemetry(reg))
	}
	peers, err := netmpi.HybridMesh(p, nodes, dialTimeout, dialOpts...)
	if err != nil {
		return err
	}
	defer netmpi.CloseMesh(peers)
	fmt.Printf("%s\n", meshBanner(peers, p, nodes))

	// Measure: the paper's O/L profile, probed over the live links in
	// parallel rounds (or served from the fingerprinted cache).
	probeOpts := netmpi.ProbeOptions{
		MaxIters: popts.iters, StableK: popts.adaptive, Workers: popts.workers,
		Deadline: deadline, Tracer: tracer,
	}
	var pf *profile.Profile
	var rep *netmpi.ProbeReport
	if popts.cacheDir != "" {
		cache := &profile.Cache{Dir: popts.cacheDir}
		var hit bool
		pf, rep, hit, err = netmpi.ProbeProfileCached(peers, probeOpts, cache, popts.driftTol)
		if err != nil {
			return err
		}
		if hit {
			fmt.Printf("profile cache hit (%s) in %s\n",
				netmpi.MeshFingerprint(peers, probeOpts), popts.cacheDir)
		} else {
			fmt.Printf("profile cache miss; stored %s in %s\n",
				netmpi.MeshFingerprint(peers, probeOpts), popts.cacheDir)
		}
	} else {
		pf, rep, err = netmpi.ProbeProfileOpts(peers, probeOpts)
		if err != nil {
			return err
		}
	}
	if n := rep.TotalSamples(); n > 0 {
		lo, med, hi := rep.SampleStats()
		fmt.Printf("probe: %d rounds, %d samples (per pair min %g / median %g / max %g) in %s\n",
			rep.Rounds, n, lo, med, hi, rep.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("probed profile %q: O in [%.1fµs, %.1fµs], L in [%.1fµs, %.1fµs]\n",
		pf.Platform, pf.O.MinOffDiag()*1e6, pf.O.MaxOffDiag()*1e6,
		pf.L.MinOffDiag()*1e6, pf.L.MaxOffDiag()*1e6)

	// Model: the schedule under test.
	var s *sched.Schedule
	switch alg {
	case "tree":
		s = sched.Tree(p)
	case "linear":
		s = sched.Linear(p)
	case "dissemination":
		s = sched.Dissemination(p)
	case "hybrid":
		tuned, err := core.Tune(pf, core.Options{})
		if err != nil {
			return fmt.Errorf("tuning against the probed profile: %w", err)
		}
		s = tuned.Schedule()
	default:
		return fmt.Errorf("algorithm %q has no schedule; -net drift needs tree, linear, dissemination, or hybrid", alg)
	}
	clean := s.DropEmptyStages()
	pl, err := run.NewPlan(clean)
	if err != nil {
		return err
	}

	// Predict: per-stage completion times from the probed profile.
	pd := predict.New(pf)
	timeline := pd.Timeline(clean)

	// The retune recommendation must watch the run from the start: the
	// controller snapshots the barrier histograms at construction, so built
	// any later it would see no fresh samples to judge.
	var ctl *retune.Controller
	if recommend > 0 {
		eps, err := netmpi.NewEpochs(pl)
		if err != nil {
			return err
		}
		ctl, err = retune.New(peers, eps, clean, pf, retune.Options{
			DriftTol:        recommend,
			MinObservations: 1, // judge whatever the traced run produced
			Probe:           probeOpts,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
	}

	// Validate: traced executions over the same mesh the profile came from.
	// Each traced barrier is preceded, in the same goroutine, by an untimed
	// alignment barrier: the model charges every rank from a common t=0, so
	// the ranks must enter the measured barrier together, not staggered by
	// goroutine launch skew. Tag windows alternate as in MeasureBarrier; a
	// barrier completing anywhere proves every rank drained the previous
	// window, so two windows suffice even back-to-back.
	runOnce := func(tags ...int) error {
		errs := make(chan error, p)
		for _, pe := range peers {
			pe := pe
			go func() {
				for _, tag := range tags {
					if err := pe.Barrier(pl, tag, deadline); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range peers {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	}
	n := 0
	nextTag := func() int { n++; return (n % 2) * run.TagSpan }
	for i := 0; i < warmup; i++ {
		if err := runOnce(nextTag()); err != nil {
			return fmt.Errorf("warmup barrier: %w", err)
		}
	}
	stages := pl.Stages
	obs := make([][]float64, stages) // per stage, per rank: min observed completion (s)
	for k := range obs {
		obs[k] = make([]float64, p)
		for i := range obs[k] {
			obs[k][i] = -1
		}
	}
	obsTotal := -1.0
	minSkew := -1.0 // best-case spread of rank entries into stage 0
	for it := 0; it < iters; it++ {
		tracer.Reset()
		if err := runOnce(nextTag(), nextTag()); err != nil {
			return fmt.Errorf("traced barrier %d: %w", it, err)
		}
		// Two spans exist per (rank, stage): the alignment barrier's and the
		// traced one's. The traced span is the later of the two.
		traced := make(map[[2]int]telemetry.SpanEvent)
		for _, e := range tracer.Events() {
			if !strings.HasPrefix(e.Name, "barrier.stage:") || e.Stage >= stages || e.Rank >= p {
				continue
			}
			key := [2]int{e.Rank, e.Stage}
			if prev, ok := traced[key]; !ok || e.Start > prev.Start {
				traced[key] = e
			}
		}
		if len(traced) == 0 {
			return fmt.Errorf("traced run %d recorded no stage spans", it)
		}
		start := time.Duration(-1)
		last := time.Duration(0)
		end := time.Duration(0)
		for key, e := range traced {
			if key[1] == 0 {
				if start < 0 || e.Start < start {
					start = e.Start
				}
				if e.Start > last {
					last = e.Start
				}
			}
			if e.End() > end {
				end = e.End()
			}
		}
		if skew := (last - start).Seconds(); minSkew < 0 || skew < minSkew {
			minSkew = skew
		}
		for key, e := range traced {
			done := (e.End() - start).Seconds()
			if cur := obs[key[1]][key[0]]; cur < 0 || done < cur {
				obs[key[1]][key[0]] = done
			}
		}
		if total := (end - start).Seconds(); obsTotal < 0 || total < obsTotal {
			obsTotal = total
		}
	}

	// Ranks idle in a stage record no span; their completion is the last
	// stage they did complete (or 0), mirroring the model's carry-forward.
	for k := 0; k < stages; k++ {
		for i := 0; i < p; i++ {
			if obs[k][i] < 0 {
				if k > 0 {
					obs[k][i] = obs[k-1][i]
				} else {
					obs[k][i] = 0
				}
			}
		}
	}

	fmt.Printf("\n%s over the real mesh: predicted vs observed per-stage completion (min of %d runs)\n",
		clean.Name, iters)
	fmt.Printf("rank entry skew into stage 0: %.1fµs (observed times start at the first entrant)\n", minSkew*1e6)
	fmt.Printf("%5s  %12s  %12s  %8s\n", "stage", "predicted", "observed", "drift")
	for k := 0; k < stages; k++ {
		pmax, omax := maxOf(timeline[k]), maxOf(obs[k])
		fmt.Printf("%5d  %10.1fµs  %10.1fµs  %+7.1f%%\n", k, pmax*1e6, omax*1e6, driftPct(pmax, omax))
		if perRank {
			for i := 0; i < p; i++ {
				fmt.Printf("      rank %3d  %10.1fµs  %10.1fµs  %+7.1f%%\n",
					i, timeline[k][i]*1e6, obs[k][i]*1e6, driftPct(timeline[k][i], obs[k][i]))
			}
		}
	}
	predTotal := pd.Cost(clean)
	fmt.Printf("%5s  %10.1fµs  %10.1fµs  %+7.1f%%\n", "total", predTotal*1e6, obsTotal*1e6, driftPct(predTotal, obsTotal))

	if ctl != nil {
		if err := printRecommendation(ctl, clean, recommend); err != nil {
			return err
		}
	}

	if critPath {
		// The tracer still holds the final iteration's window: the alignment
		// barrier plus the traced one. Merge auto-selects the later (traced)
		// instance; the alignment run doubles as clock-offset material.
		tl, err := critpath.Merge(tracer.Events(), p, -1)
		if err != nil {
			return fmt.Errorf("merging the final traced window: %w", err)
		}
		est := 0
		for _, e := range tl.Estimated {
			if e {
				est++
			}
		}
		fmt.Printf("\nmerged timeline: %d matched messages (%d unmatched), clock offsets estimated for %d/%d ranks\n",
			len(tl.All), tl.Unmatched, est, p)
		fmt.Print(critpath.Analyze(tl, pd, clean))
	}

	if traceOut != "" {
		if err := tracer.WriteChromeTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
	return nil
}

// printRecommendation runs one pass of the online retuning controller
// read-only: the same drift judgement, targeted re-probe, and seeded
// re-search the closed loop performs, but with the proposal landing in a
// throwaway epoch store — nothing executing is touched. The operator gets
// the exact plan `runbarrier -net -retune` would have swapped in.
func printRecommendation(ctl *retune.Controller, s *sched.Schedule, tol float64) error {
	d, err := ctl.Check()
	if err != nil {
		return err
	}
	fmt.Printf("\nretune check (tolerance %.2g):\n", tol)
	if !d.Checked {
		fmt.Println("  not enough barrier samples to judge drift")
		return nil
	}
	fmt.Printf("  observed %.1fµs vs predicted %.1fµs — drift %.2f\n", d.Observed*1e6, d.Predicted*1e6, d.Drift)
	if !d.Triggered {
		fmt.Printf("  within tolerance; keep %q\n", s.Name)
		return nil
	}
	fmt.Printf("  re-probe: %d directions screened, %d stale %v\n", d.Reprobe.Screened, len(d.Reprobe.Stale), d.Reprobe.Stale)
	fmt.Printf("  current plan re-priced under the patched profile: %.1fµs\n", d.Repriced*1e6)
	if !d.Swapped {
		fmt.Printf("  no candidate beat the re-priced plan by the hysteresis margin; keep %q\n", s.Name)
		return nil
	}
	fmt.Printf("  recommend switching to %q (%s): predicted %.1fµs, %.1f× better\n",
		ctl.Schedule().Name, d.Candidate, d.NewPredicted*1e6, d.Repriced/d.NewPredicted)
	return nil
}

func maxOf(xs []float64) float64 {
	max := 0.0
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	return max
}

// driftPct is the signed observed-vs-predicted error; positive means the
// transport ran slower than the model said.
func driftPct(pred, obs float64) float64 {
	if pred <= 0 {
		return 0
	}
	return 100 * (obs - pred) / pred
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracebarrier:", err)
	os.Exit(1)
}
