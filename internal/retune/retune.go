// Package retune closes the loop the paper's §VIII leaves open: barriers are
// tuned offline against a static O/L profile, so when run-time conditions
// drift — a congested link, a noisy neighbour, a rescheduled process — the
// tuned plan keeps executing against a model that is no longer true. The
// Controller watches predicted-vs-observed barrier cost through the mesh's
// telemetry histograms, and when the drift exceeds tolerance it (1)
// re-probes only the stale links (netmpi.ReprobeStale's two-phase screen +
// adaptive re-probe, patching the live profile in place and refreshing the
// fingerprinted cache), (2) re-runs the incremental search seeded from the
// *currently running* schedule — the warm-start that makes online retuning
// cheap enough to matter, per "Fast Tuning of Intra-Cluster Collective
// Communications" — alongside a from-scratch composition, with the same
// barriervet/CertifyK gates every offline tune passes, and (3) hot-swaps
// the winning plan into the running mesh through the epoch store, where the
// per-rank runners agree on the switch point at their next control barrier.
// No restart, no dropped barriers: the swap is a version bump the transport
// applies at a quiescence point.
package retune

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/telemetry"
)

// Options configures a Controller. The zero value of each field selects the
// documented default.
type Options struct {
	// DriftTol is the relative predicted-vs-observed drift (normalised by
	// the smaller of the two, exactly like the probe cache's revalidation)
	// beyond which the controller acts. It is also the per-link tolerance
	// handed to the re-probe screen. Default 1.0 — act when observation and
	// model disagree by 2×.
	DriftTol float64
	// MinObservations is the number of fresh barrier samples every rank
	// must have contributed since the last check before drift is judged;
	// fewer and the check is skipped. Default 8.
	MinObservations int64
	// Hysteresis is the fractional predicted improvement a re-tuned plan
	// must show over the current schedule (re-priced under the patched
	// profile) before a swap is proposed — swapping for noise-level wins
	// would churn epochs for nothing. Default 0.05.
	Hysteresis float64
	// Probe configures the re-probe phases (budget, adaptivity, deadline).
	Probe netmpi.ProbeOptions
	// Cache, when non-nil, receives the patched profile under the mesh
	// fingerprint after every re-probe, so the next cold start revalidates
	// against reality instead of the stale entry.
	Cache *profile.Cache
	// SearchBudget caps the seeded incremental search's candidate
	// evaluations. Default 4000.
	SearchBudget int
	// SearchSeed drives the search's randomness (deterministic per seed).
	SearchSeed uint64
	// SearchWorkers bounds the search portfolio's goroutines; 0 uses all
	// cores. Never changes the result.
	SearchWorkers int
	// CertifyK, when positive, demands the same k-fault certification of a
	// swapped-in plan that core.Tune demands offline.
	CertifyK int
	// Policy and StageOverhead parameterise the predictor, matching
	// whatever the initial tune used.
	Policy        predict.CostPolicy
	StageOverhead float64
	// Registry is the registry the mesh's peers publish to — the source of
	// the per-rank netmpi_barrier_seconds histograms the controller
	// watches. Required: a controller with nothing to observe is a bug.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records retune.check / retune.replan spans.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, is the critpath flight recorder wrapped around
	// the tracer the mesh's peers record message spans into. On every
	// drift trigger the controller dumps it (reason "drift") and asks the
	// traced messages which directions they implicate: when the per-link
	// blame names suspects, the re-probe screens only those directions
	// (netmpi.ReprobeDirections) instead of all P·(P−1), and falls back to
	// the full screen when the blame is silent.
	Flight *critpath.FlightRecorder
}

func (o Options) withDefaults() Options {
	if o.DriftTol <= 0 {
		o.DriftTol = 1.0
	}
	if o.MinObservations <= 0 {
		o.MinObservations = 8
	}
	if o.Hysteresis <= 0 {
		o.Hysteresis = 0.05
	}
	if o.SearchBudget <= 0 {
		o.SearchBudget = 4000
	}
	return o
}

// Decision records what one Check did.
type Decision struct {
	// Checked is false when some rank had fewer than MinObservations fresh
	// samples — no judgement was made and nothing below is meaningful.
	Checked bool
	// Observed is the slowest rank's mean barrier seconds over the fresh
	// window; Predicted is the model's cost for the running schedule;
	// Drift their relative distance.
	Observed, Predicted, Drift float64
	// Triggered reports whether Drift exceeded the tolerance.
	Triggered bool
	// Implicated is the blame-derived direction set the re-probe was aimed
	// at; nil when no flight recorder was attached or the blame named no
	// suspects and the screen covered the whole mesh.
	Implicated []netmpi.Direction
	// Reprobe describes the two-phase re-probe (nil unless triggered); its
	// Stale list is exactly the set of fully re-probed directions.
	Reprobe *netmpi.ReprobeReport
	// Repriced is the current schedule's predicted cost under the patched
	// profile; NewPredicted the winning candidate's. Candidate names the
	// winner ("seeded-search" or "recomposed"); empty when every candidate
	// failed its gates.
	Repriced, NewPredicted float64
	Candidate              string
	// Swapped reports whether a new plan was proposed; Version is the
	// epoch version it got (the running version when not swapped).
	Swapped bool
	Version int
	// Settling is true on the first check after a swap: that observation
	// window still mixes stale-plan barriers (and the runners' staggered
	// switch points) with new-plan ones, so judging it against the new
	// model would re-trigger on traffic the swap already cured. The check
	// discards the window and judges nothing.
	Settling bool
}

// Controller owns the closed loop for one mesh. It is driven either
// manually (Check) or by its own goroutine (Start/Stop); the two must not
// be mixed concurrently.
type Controller struct {
	peers []*netmpi.Peer
	eps   *netmpi.Epochs
	opts  Options

	sched     *sched.Schedule // schedule of the latest proposed plan
	pf        *profile.Profile
	predicted float64

	hist      []*telemetry.Histogram
	lastCount []int64
	lastSum   []float64
	version   int
	settling  bool // next window is contaminated by a swap; discard it

	checks, triggers, swaps *telemetry.Counter
	driftGauge              *telemetry.Gauge

	mu      sync.Mutex
	history []Decision
	runErr  error
	stop    chan struct{}
	done    chan struct{}
}

// New builds a controller for a live mesh. s and pf must be the schedule
// and (live-probed) profile behind the epoch store's current plan, and the
// peers must have been dialled with telemetry publishing to opts.Registry —
// that is where the observed barrier costs come from.
func New(peers []*netmpi.Peer, eps *netmpi.Epochs, s *sched.Schedule, pf *profile.Profile, opts Options) (*Controller, error) {
	if len(peers) < 2 || eps == nil || s == nil || pf == nil {
		return nil, fmt.Errorf("retune: controller needs a mesh, an epoch store, a schedule, and a profile")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("retune: controller needs the mesh's telemetry registry to observe drift")
	}
	if s.P != len(peers) || pf.P != len(peers) {
		return nil, fmt.Errorf("retune: schedule (%d ranks) / profile (%d ranks) vs %d-rank mesh", s.P, pf.P, len(peers))
	}
	opts = opts.withDefaults()
	pd := &predict.Predictor{Prof: pf, Policy: opts.Policy, StageOverhead: opts.StageOverhead}
	c := &Controller{
		peers:      peers,
		eps:        eps,
		opts:       opts,
		sched:      s,
		pf:         pf,
		predicted:  pd.Cost(s),
		hist:       make([]*telemetry.Histogram, len(peers)),
		lastCount:  make([]int64, len(peers)),
		lastSum:    make([]float64, len(peers)),
		version:    eps.Latest(),
		checks:     opts.Registry.Counter("retune_checks_total"),
		triggers:   opts.Registry.Counter("retune_triggers_total"),
		swaps:      opts.Registry.Counter("retune_swaps_total"),
		driftGauge: opts.Registry.Gauge("retune_drift"),
	}
	for r := range peers {
		c.hist[r] = opts.Registry.Histogram(telemetry.Label("netmpi_barrier_seconds", "rank", strconv.Itoa(r)), nil)
		c.lastCount[r] = c.hist[r].Count()
		c.lastSum[r] = c.hist[r].Sum()
	}
	opts.Flight.SetModel(pd, s)
	return c, nil
}

// Predicted returns the model cost of the schedule currently proposed.
func (c *Controller) Predicted() float64 { return c.predicted }

// Schedule returns the schedule currently proposed (initially the seed).
func (c *Controller) Schedule() *sched.Schedule { return c.sched }

// observe reads the per-rank barrier histograms and returns the slowest
// rank's mean over the samples accumulated since the last successful
// observation, with the smallest per-rank fresh-sample count. The window is
// consumed only when every rank has contributed enough.
func (c *Controller) observe() (mean float64, minFresh int64) {
	p := len(c.peers)
	counts := make([]int64, p)
	sums := make([]float64, p)
	minFresh = math.MaxInt64
	for r := 0; r < p; r++ {
		counts[r] = c.hist[r].Count()
		sums[r] = c.hist[r].Sum()
		if fresh := counts[r] - c.lastCount[r]; fresh < minFresh {
			minFresh = fresh
		}
	}
	if minFresh < c.opts.MinObservations {
		return 0, minFresh
	}
	for r := 0; r < p; r++ {
		m := (sums[r] - c.lastSum[r]) / float64(counts[r]-c.lastCount[r])
		if m > mean {
			mean = m
		}
		c.lastCount[r], c.lastSum[r] = counts[r], sums[r]
	}
	return mean, minFresh
}

// Check runs one pass of the loop: observe, judge drift, and — when
// triggered — re-probe, re-search, and propose. It is cheap when nothing
// drifted (a handful of histogram reads) and never blocks barrier traffic:
// the re-probe shares the mesh with live barriers by tag-space separation,
// and the proposal is picked up by the runners at their next control
// barrier.
func (c *Controller) Check() (Decision, error) {
	span := c.opts.Tracer.Begin("retune.check", -1, -1, -1)
	defer span.End()
	c.checks.Inc()
	var d Decision
	d.Version = c.version
	d.Predicted = c.predicted

	if c.settling {
		c.settling = false
		d.Settling = true
		for r := range c.hist {
			c.lastCount[r] = c.hist[r].Count()
			c.lastSum[r] = c.hist[r].Sum()
		}
		// Keep the flight windows aligned with the observation windows: the
		// contaminated spans go into their own (discarded-for-blame) window.
		c.opts.Flight.Cut("settle")
		return d, nil
	}

	observed, fresh := c.observe()
	if fresh < c.opts.MinObservations {
		return d, nil
	}
	d.Checked = true
	d.Observed = observed
	d.Drift = netmpi.RelDrift(c.predicted, observed)
	c.driftGauge.Set(d.Drift)
	if d.Drift <= c.opts.DriftTol {
		// The window was consumed quietly; cut the matching flight window so
		// a later trigger blames only the spans of the window that drifted,
		// not the healthy history (floors are minima — old healthy
		// observations would mask a link that got slow later).
		c.opts.Flight.Cut("check")
		return d, nil
	}
	d.Triggered = true
	c.triggers.Inc()

	// Re-probe only what moved, fold it into the live profile, and refresh
	// the cache entry so the next cold start inherits reality. With a
	// flight recorder attached, the traced messages of the drifted window
	// aim the screen — only the directions whose observed delivery floor
	// drifted from the model get measured — and the drift moment is
	// preserved on disk before the mesh is touched.
	var rep *netmpi.ReprobeReport
	var err error
	if c.opts.Flight != nil {
		links := c.opts.Flight.ImplicatedFresh(c.pf, c.opts.DriftTol, "drift")
		if _, derr := c.opts.Flight.Dump("drift"); derr != nil {
			return d, fmt.Errorf("retune: flight dump: %w", derr)
		}
		if len(links) > 0 {
			dirs := make([]netmpi.Direction, len(links))
			for i, l := range links {
				dirs[i] = netmpi.Direction{From: l.From, To: l.To}
			}
			d.Implicated = dirs
			rep, err = netmpi.ReprobeDirections(c.peers, c.pf, c.opts.Probe, c.opts.DriftTol, dirs)
		}
	}
	if rep == nil && err == nil {
		rep, err = netmpi.ReprobeStale(c.peers, c.pf, c.opts.Probe, c.opts.DriftTol)
	}
	if err != nil {
		return d, fmt.Errorf("retune: re-probe: %w", err)
	}
	d.Reprobe = rep
	if c.opts.Cache != nil {
		fp := netmpi.MeshFingerprint(c.peers, c.opts.Probe)
		if err := c.opts.Cache.Store(fp, c.pf); err != nil {
			return d, fmt.Errorf("retune: refreshing cache: %w", err)
		}
	}

	s, pl, cost, repriced, candidate, err := c.replan()
	if err != nil {
		return d, err
	}
	d.Repriced = repriced
	d.NewPredicted = cost
	d.Candidate = candidate
	c.predicted = repriced
	if pl == nil || cost >= repriced*(1-c.opts.Hysteresis) {
		// Nothing beat the running schedule by enough; keep it, with the
		// model refreshed so the next check judges against reality.
		return d, nil
	}
	v, err := c.eps.Propose(pl)
	if err != nil {
		return d, fmt.Errorf("retune: proposing plan: %w", err)
	}
	c.sched, c.predicted, c.version = s, cost, v
	c.settling = true
	d.Swapped, d.Version, d.Predicted = true, v, cost
	c.swaps.Inc()
	c.opts.Flight.SetModel(&predict.Predictor{Prof: c.pf, Policy: c.opts.Policy, StageOverhead: c.opts.StageOverhead}, s)
	return d, nil
}

// replan races two candidates under the patched profile — the incremental
// search seeded from the running schedule, and a from-scratch composition —
// and returns the cheapest one that passes the full vet (barriervet +
// CheckPlan + CertifyK), alongside the running schedule's re-priced cost.
// A nil plan means no candidate survived its gates.
func (c *Controller) replan() (*sched.Schedule, *run.Plan, float64, float64, string, error) {
	span := c.opts.Tracer.Begin("retune.replan", -1, -1, -1)
	defer span.End()
	pd := &predict.Predictor{Prof: c.pf, Policy: c.opts.Policy, StageOverhead: c.opts.StageOverhead}
	repriced := pd.Cost(c.sched)
	vetOpts := analyze.Options{Predictor: pd, CertifyK: c.opts.CertifyK}

	var bestS *sched.Schedule
	var bestPl *run.Plan
	bestCost := math.Inf(1)
	bestName := ""

	// Candidate 1: seeded incremental search from the running schedule.
	if res, err := search.Anneal(pd, c.sched, search.AnnealOptions{
		Seed:    c.opts.SearchSeed,
		Budget:  c.opts.SearchBudget,
		Workers: c.opts.SearchWorkers,
	}); err == nil && res.Cost < bestCost {
		if pl, _, err := netmpi.VetPlan(res.Schedule, vetOpts); err == nil {
			bestS, bestPl, bestCost, bestName = res.Schedule, pl, res.Cost, "seeded-search"
		}
	}

	// Candidate 2: full recomposition on the patched profile — the paper's
	// pipeline, for drifts large enough that the old structure is wrong.
	if tuned, err := core.Tune(c.pf, core.Options{
		Policy:        c.opts.Policy,
		StageOverhead: c.opts.StageOverhead,
		CertifyK:      c.opts.CertifyK,
	}); err == nil && tuned.PredictedCost() < bestCost {
		bestS, bestPl, bestCost, bestName = tuned.Schedule(), tuned.Plan, tuned.PredictedCost(), "recomposed"
	}

	if bestPl == nil {
		return nil, nil, math.Inf(1), repriced, "", nil
	}
	return bestS, bestPl, bestCost, repriced, bestName, nil
}

// Start launches the loop in its own goroutine, running Check every
// interval until Stop. Check errors latch (inspect with Err) and end the
// loop — an unrunnable controller should be loud, not silently idle.
func (c *Controller) Start(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				d, err := c.Check()
				c.mu.Lock()
				c.history = append(c.history, d)
				if err != nil {
					c.runErr = err
					c.mu.Unlock()
					return
				}
				c.mu.Unlock()
			}
		}
	}()
}

// Stop ends the loop and waits for it.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// History returns the decisions the background loop has recorded.
func (c *Controller) History() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.history...)
}

// Err returns the error that ended the background loop, if any.
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}
