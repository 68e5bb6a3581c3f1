package main

import (
	"fmt"
	"runtime"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/compose"
	"topobarrier/internal/core"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
	"topobarrier/internal/telemetry"
)

// pipelineTrace is one traced pass of the tuning pipeline: the wall time
// of every layer call and the counts each layer reports.
type pipelineTrace struct {
	sss, compose, vet, search, plan, checkplan, closure time.Duration
	// cpu is the processor time of the whole pass, closure check excluded.
	cpu time.Duration

	leaves, stages int
	examined       int
	candidates     int64
	ttHits         int64
	accepts        int64
	searchMallocs  uint64
	adopted        bool

	schedule *sched.Schedule
	cost     float64
}

// tracedPipeline calls the layers of core.Tune one by one, in core.Tune's
// order and with its options, timing each call from outside:
// sss.Tree → compose.Hybrid → analyze.Analyze → search.Anneal →
// analyze.Analyze → run.NewPlan → analyze.CheckPlan. The caller compares
// the result with core.Tune's, so the layer numbers describe the product's
// pipeline. sched.closure is timed separately on the final schedule.
func tracedPipeline(pf *profile.Profile, opts core.Options) (*pipelineTrace, error) {
	tr := &pipelineTrace{}
	cpu0 := cpuTime()
	builders := opts.Builders
	if builders == nil {
		builders = sched.PaperBuilders()
	}
	pd := &predict.Predictor{Prof: pf, Policy: opts.Policy, StageOverhead: opts.StageOverhead}

	var tree *sss.Node
	tr.sss = timeIt(func() { tree = sss.Tree(pf, opts.Clustering) })
	var res *compose.Result
	var err error
	tr.compose = timeIt(func() { res, err = compose.Hybrid(pd, tree, builders) })
	if err != nil {
		return nil, fmt.Errorf("compose: %w", err)
	}
	vetOpts := analyze.Options{Predictor: pd, CertifyK: opts.CertifyK}
	var rep *analyze.Report
	tr.vet = timeIt(func() { rep = analyze.Analyze(res.Schedule, vetOpts) })
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("vet of the composition: %w", err)
	}
	if cex := rep.ResilienceCounterexample(); cex != nil {
		return nil, fmt.Errorf("composition is not %d-fault resilient: %s", opts.CertifyK, cex.Message)
	}
	tr.leaves = len(tree.Leaves())
	tr.stages = res.Schedule.NumStages()
	schedule, cost := res.Schedule, res.PredictedCost

	if opts.Refine > 0 {
		var clusters [][]int
		for _, leaf := range tree.Leaves() {
			clusters = append(clusters, leaf.Ranks)
		}
		reg := telemetry.NewRegistry()
		var sres *search.Result
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr.search = timeIt(func() {
			sres, err = search.Anneal(pd, res.Schedule, search.AnnealOptions{
				Seed: opts.RefineSeed, Budget: opts.Refine, Workers: opts.RefineWorkers,
				Clusters: clusters, BatchSize: opts.RefineBatch, Telemetry: reg,
			})
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("refinement search: %w", err)
		}
		tr.searchMallocs = m1.Mallocs - m0.Mallocs
		tr.examined = sres.Examined
		tr.candidates = reg.Counter("search_candidates_total").Value()
		tr.ttHits = reg.Counter("search_tt_hits_total").Value()
		tr.accepts = reg.Counter("search_accepts_total").Value()
		if sres.Cost < cost {
			var rrep *analyze.Report
			tr.vet += timeIt(func() { rrep = analyze.Analyze(sres.Schedule, vetOpts) })
			if rrep.Err() == nil && rrep.ResilienceCounterexample() == nil {
				schedule, cost = sres.Schedule, sres.Cost
				tr.adopted = true
			}
		}
	}
	var plan *run.Plan
	tr.plan = timeIt(func() { plan, err = run.NewPlan(schedule) })
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	var findings []analyze.Finding
	tr.checkplan = timeIt(func() { findings = analyze.CheckPlan(plan) })
	if err := (&analyze.Report{Findings: findings}).Err(); err != nil {
		return nil, fmt.Errorf("plan check: %w", err)
	}
	tr.cpu = cpuTime() - cpu0
	ok := false
	tr.closure = timeIt(func() { ok = schedule.IsBarrier() })
	if !ok {
		return nil, fmt.Errorf("tuned schedule fails Eq. 3")
	}
	tr.schedule, tr.cost = schedule, cost
	return tr, nil
}

// checkTuned is the tune output check: the schedule satisfies Eq. 3, the
// static analysis reports no Error finding, and the compiled plan passes
// the protocol checks.
func checkTuned(b *bench, t *core.Tuned) {
	s := t.Schedule()
	b.check(s.IsBarrier(), "tuned schedule %s fails Eq. 3", s.Name)
	rep := analyze.Analyze(s, analyze.Options{Predictor: &predict.Predictor{Prof: t.Profile}})
	b.check(rep.Err() == nil, "tuned schedule fails barriervet: %v", rep.Err())
	plan, err := run.NewPlan(s)
	if !b.check(err == nil, "compiling the tuned schedule: %v", err) {
		return
	}
	planRep := &analyze.Report{Findings: analyze.CheckPlan(plan)}
	b.check(planRep.Err() == nil, "tuned plan fails the protocol check: %v", planRep.Err())
}

// setPipelineLayers records the tuning layers' per-layer metrics from the
// median of several traced passes.
func setPipelineLayers(b *bench, trs []*pipelineTrace) {
	med := func(f func(*pipelineTrace) float64) float64 {
		xs := make([]float64, len(trs))
		for i, tr := range trs {
			xs[i] = f(tr)
		}
		return median(xs)
	}
	last := trs[len(trs)-1]
	b.set("sss.wall_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.sss) }))
	b.set("sss.leaves", "count", float64(last.leaves))
	b.set("compose.wall_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.compose) }))
	b.set("compose.stages", "count", float64(last.stages))
	b.set("search.wall_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.search) }))
	b.set("search.examined_per_s", "1/s", med(func(t *pipelineTrace) float64 {
		return float64(t.examined) / t.search.Seconds()
	}))
	ratio := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	b.set("search.tt_hit_ratio", "ratio", ratio(last.ttHits, last.candidates))
	b.set("search.accept_ratio", "ratio", ratio(last.accepts, last.candidates))
	b.set("search.allocs_per_candidate", "count", med(func(t *pipelineTrace) float64 {
		return float64(t.searchMallocs) / float64(max(t.examined, 1))
	}))
	adopted := 0.0
	if last.adopted {
		adopted = 1
	}
	b.set("search.adopted", "count", adopted)
	b.set("sched.closure_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.closure) }))
	b.set("analyze.vet_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.vet) }))
	b.set("analyze.checkplan_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.checkplan) }))
	b.set("run.plan_ms", "ms", med(func(t *pipelineTrace) float64 { return ms(t.plan) }))
}

// tracePipeline runs one traced pass of the pipeline on pf and fails the
// run unless it reproduces the product's schedule and cost exactly.
func tracePipeline(b *bench, pf *profile.Profile, opts core.Options, want *core.Tuned) (*pipelineTrace, error) {
	tr, err := tracedPipeline(pf, opts)
	if err != nil {
		return nil, fmt.Errorf("traced pipeline: %w", err)
	}
	if !b.check(tr.schedule.Equal(want.Schedule()) && tr.cost == want.PredictedCost(),
		"traced pipeline gives %s at %.4gµs, core.Tune gave %s at %.4gµs",
		tr.schedule, tr.cost*1e6, want.Schedule(), want.PredictedCost()*1e6) {
		return nil, fmt.Errorf("traced pipeline differs from core.Tune")
	}
	return tr, nil
}
