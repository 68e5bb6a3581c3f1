package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/topo"
)

// tuneSpec is one tune workload: simulated platforms built from the seed,
// the tuner configuration, and the size of the simulated measurement that
// follows the timed tuning phase.
type tuneSpec struct {
	fabric func(seed uint64) (*fabric.Fabric, error)
	// probed tunes with core.ProfileAndTune over the simulated world, using
	// profilecluster's default probe configuration; otherwise core.Tune
	// reads the fabric's noise-free profile.
	probed      bool
	refine      int
	refineBatch int
	// inputs is how many platforms a run tunes in turn, with seeds
	// seed·inputs+i. The probed platform's noise can change the composed
	// schedule's shape and with it the search's cost, so a run takes the
	// median over several to keep runs of different seeds comparable.
	inputs int
	// simIters is the run.Measure iteration count of sim_barrier_us and
	// sim_speedup; instances is the number of per-instance simulated
	// barriers per input behind the barrier_* metrics.
	simIters, instances int
	// validate runs the run.Validate delay-injection check.
	validate bool
}

var tuneP1024 = tuneSpec{
	fabric:      func(seed uint64) (*fabric.Fabric, error) { return fabric.ScaleClusterFabric(1024, 32, seed) },
	refine:      2000,
	refineBatch: 8,
	inputs:      1,
	simIters:    100,
	instances:   1000,
}

var tuneQuadP32 = tuneSpec{
	fabric: func(seed uint64) (*fabric.Fabric, error) {
		return fabric.QuadClusterFabric(topo.RoundRobin{}, 32, seed)
	},
	probed:    true,
	refine:    1_000_000,
	inputs:    16,
	simIters:  500,
	instances: 500,
	validate:  true,
}

// setupReps is how many set-up measurements setup_s is the median of.
const setupReps = 5

// validateDelay is how late run.Validate makes each rank enter the barrier.
const validateDelay = 1e-3

// probeConfig is profilecluster's default: the light protocol with
// structural replication.
func probeConfig() probe.Config {
	cfg := probe.Default()
	cfg.Replicate = true
	return cfg
}

// platform is one set-up simulated machine.
type platform struct {
	world *mpi.World
	prof  *profile.Profile // noise-free profile; nil when the tuner probes
}

// seeds returns the run's input seeds.
func (s tuneSpec) seeds(seed uint64) []uint64 {
	n := max(s.inputs, 1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*uint64(n) + uint64(i)
	}
	return out
}

// world builds a fresh simulated world of the seed's platform.
func (s tuneSpec) world(seed uint64, opts ...mpi.Option) (*mpi.World, error) {
	fab, err := s.fabric(seed)
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(fab, opts...), nil
}

// setup builds what a tune needs: the world, and the noise-free profile
// when the tuner does not probe.
func (s tuneSpec) setup(seed uint64) (platform, error) {
	w, err := s.world(seed)
	if err != nil {
		return platform{}, err
	}
	pl := platform{world: w}
	if !s.probed {
		pl.prof = w.Fabric().TrueProfile()
	}
	return pl, nil
}

func (s tuneSpec) options(seed uint64) core.Options {
	return core.Options{Refine: s.refine, RefineBatch: s.refineBatch, RefineSeed: seed}
}

func (s tuneSpec) tune(pl platform, seed uint64) (*core.Tuned, error) {
	if s.probed {
		return core.ProfileAndTune(pl.world, probeConfig(), s.options(seed))
	}
	return core.Tune(pl.prof, s.options(seed))
}

// simResult is the simulated measurement of one input's tuned barrier.
type simResult struct {
	tuned, tree run.Measurement
}

// runTune runs a tune workload: repeated set-up, a closed loop of
// tunes for the phase length, output checks, and the simulated comparison
// against baseline.Tree.
func runTune(b *bench, s tuneSpec) error {
	seeds := s.seeds(b.seed)
	pls := make([]platform, len(seeds))
	var setups []float64
	for i := 0; i < max(setupReps, len(seeds)); i++ {
		k := i % len(seeds)
		var err error
		setups = append(setups, perCall(func() { pls[k], err = s.setup(seeds[k]) }))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	tuned, tunes, err := tuneLoop(b, s, seeds, pls)
	if err != nil {
		return err
	}
	sims := make([]simResult, len(seeds))
	inst := &instances{p: tuned[0].Plan.P}
	for k, seed := range seeds {
		if sims[k], err = simulate(b, s, seed, tuned[k], inst); err != nil {
			return err
		}
	}
	tallyInstances(b, inst)
	if b.trace {
		return tuneLayers(b, s, seeds, tuned, tunes, sims, inst)
	}
	var costs, simBarrier, speedup []float64
	for k, seed := range seeds {
		cost, err := measuredCost(s, seed, tuned[k])
		if err != nil {
			return err
		}
		costs = append(costs, cost)
		simBarrier = append(simBarrier, sims[k].tuned.Mean)
		speedup = append(speedup, sims[k].tree.Mean/sims[k].tuned.Mean)
	}
	b.set("setup_s", "s", median(setups))
	b.set("tune_s", "s", median(tunes))
	b.set("tuned_cost_us", "us", median(costs)*1e6)
	b.set("sim_barrier_us", "us", median(simBarrier)*1e6)
	b.set("sim_speedup", "ratio", median(speedup))
	setBarrierMetrics(b, inst)
	return nil
}

// measuredCost is the tuned barrier's predicted cost on the platform's
// measured profile, the same quantity for every workload. A probing tuner
// already predicted on one; a tuner fed the noise-free profile gets the
// seed's simulated probe, so the figure carries the seed's measurement
// noise like every other.
func measuredCost(s tuneSpec, seed uint64, t *core.Tuned) (float64, error) {
	if s.probed {
		return t.PredictedCost(), nil
	}
	w, err := s.world(seed)
	if err != nil {
		return 0, err
	}
	pf, err := probe.Measure(w, probeConfig())
	if err != nil {
		return 0, fmt.Errorf("probing the simulated platform: %w", err)
	}
	return predict.New(pf).Cost(t.Schedule()), nil
}

// tuneLoop tunes back to back, the inputs in turn, until the phase is over
// and every input has had as many tunes (at least three tunes in all). It
// returns each input's first result and every tune's processor time (see
// cpuTime: on a shared virtual machine the host's steal swings wall time by
// up to 2× from run to run, processor time far less). A first
// result passes the full output check; every later one of the same input
// must repeat it exactly.
func tuneLoop(b *bench, s tuneSpec, seeds []uint64, pls []platform) ([]*core.Tuned, []float64, error) {
	n := len(seeds)
	firsts := make([]*core.Tuned, n)
	var tunes []float64
	for start := time.Now(); len(tunes) < max(3, n) || len(tunes)%n != 0 || time.Since(start) < b.phase(); {
		k := len(tunes) % n
		if s.probed {
			// Probing consumes the world's noise stream: each tune gets a
			// fresh world of the input's seed, outside the timed call.
			var err error
			if pls[k], err = s.setup(seeds[k]); err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		var t *core.Tuned
		var err error
		tunes = append(tunes, cpuIt(func() { t, err = s.tune(pls[k], seeds[k]) }).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("tune: %w", err)
		}
		if firsts[k] == nil {
			firsts[k] = t
			checkTuned(b, t)
			continue
		}
		b.check(t.Schedule().Equal(firsts[k].Schedule()) && t.PredictedCost() == firsts[k].PredictedCost(),
			"tune %d gave %s, the first of input %d gave %s", len(tunes), t.Schedule(), k, firsts[k].Schedule())
	}
	return firsts, tunes, nil
}

// simCompare measures the tuned barrier and baseline.Tree with run.Measure
// on fresh simulated worlds of the same seed.
func simCompare(b *bench, s tuneSpec, seed uint64, t *core.Tuned) (res simResult, err error) {
	measure := func(f run.Func) (run.Measurement, error) {
		w, err := s.world(seed)
		if err != nil {
			return run.Measurement{}, err
		}
		return run.Measure(w, f, 2, s.simIters)
	}
	if res.tuned, err = measure(t.Func()); err != nil {
		return res, fmt.Errorf("simulating the tuned barrier: %w", err)
	}
	if res.tree, err = measure(baseline.Tree); err != nil {
		return res, fmt.Errorf("simulating baseline.Tree: %w", err)
	}
	b.attempted += 2 * s.simIters
	return res, nil
}

// simulate adds to simCompare the per-instance latencies, recorded into
// inst, and, where the workload asks for it, the delay-injection check.
func simulate(b *bench, s tuneSpec, seed uint64, t *core.Tuned, inst *instances) (simResult, error) {
	res, err := simCompare(b, s, seed, t)
	if err != nil {
		return res, err
	}
	w, err := s.world(seed)
	if err != nil {
		return res, err
	}
	if err := simInstances(w, t.Func(), 2, s.instances, inst); err != nil {
		return res, err
	}
	if s.validate {
		if w, err = s.world(seed); err != nil {
			return res, err
		}
		err := run.Validate(w, t.Func(), validateDelay, nil)
		b.check(err == nil, "delay injection: %v", err)
	}
	return res, nil
}

// instances holds back-to-back barrier instances observed from outside the
// barrier call, in the simulator's virtual time or in wall time, recorded
// in batches.
type instances struct {
	p, n       int
	lat        []float64 // per instance: last entry to last exit, seconds
	skew       []float64 // per instance: first entry to last entry, seconds
	cycles     []float64 // per instance after a batch's first: last exit to the next last exit, seconds
	tails      []float64 // per batch: the batch's tail latency (p99 from 1000 instances), seconds
	violations int       // instances where some rank exited before another entered
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

// add folds one batch of n back-to-back instances into the record
// (entry[r][k] is rank r's entry into the batch's k-th instance) and checks
// the barrier property exit_i(k) ≥ entry_j(k) for every rank pair.
func (in *instances) add(entry, exit [][]float64, n int) {
	first := len(in.lat)
	lastOut := math.NaN()
	for k := 0; k < n; k++ {
		minIn, maxIn := math.Inf(1), math.Inf(-1)
		minOut, maxOut := math.Inf(1), math.Inf(-1)
		for r := range entry {
			minIn, maxIn = math.Min(minIn, entry[r][k]), math.Max(maxIn, entry[r][k])
			minOut, maxOut = math.Min(minOut, exit[r][k]), math.Max(maxOut, exit[r][k])
		}
		if minOut < maxIn {
			in.violations++
		}
		in.lat = append(in.lat, maxOut-maxIn)
		in.skew = append(in.skew, maxIn-minIn)
		if k > 0 {
			in.cycles = append(in.cycles, maxOut-lastOut)
		}
		lastOut = maxOut
	}
	tail, _ := tailQuantile(in.lat[first:]) // the record keeps no instance order
	in.tails = append(in.tails, tail)
	in.n += n
}

// simInstances runs warmup+n back-to-back barriers in one simulated run and
// adds each instance's virtual entry and exit times per rank to in, as one
// batch.
func simInstances(w *mpi.World, f run.Func, warmup, n int, in *instances) error {
	p := w.Size()
	entry, exit := make([][]float64, p), make([][]float64, p)
	for r := range entry {
		entry[r], exit[r] = make([]float64, n), make([]float64, n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := w.Run(func(c *mpi.Comm) {
		r := c.Rank()
		for i := 0; i < warmup+n; i++ {
			tagBase := (i % 2) * run.TagSpan
			if i < warmup {
				f(c, tagBase)
				continue
			}
			entry[r][i-warmup] = c.Wtime()
			f(c, tagBase)
			exit[r][i-warmup] = c.Wtime()
		}
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("simulating barrier instances: %w", err)
	}
	in.mallocs += m1.Mallocs - m0.Mallocs
	in.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	in.gcs += m1.NumGC - m0.NumGC
	in.add(entry, exit, n)
	return nil
}

// setBarrierMetrics records the p50 of the instances' latency, the
// throughput of the closed loop's median cycle, and heap allocations per
// rank per barrier.
func setBarrierMetrics(b *bench, in *instances) {
	fmt.Printf("barrier latency: p50 over %d instances\n", in.n)
	b.set("barrier_p50_us", "us", median(in.lat)*1e6)
	b.set("barriers_per_s", "1/s", 1/median(in.cycles))
	b.set("allocs_per_barrier", "count", float64(in.mallocs)/float64(in.n*in.p))
}

// tuneLayers is the traced run of a tune workload: the traced pipeline
// with its equivalence check, the model error against the simulator, and
// the live-transport layers on the reference mesh.
func tuneLayers(b *bench, s tuneSpec, seeds []uint64, tuned []*core.Tuned, tunes []float64, sims []simResult, inst *instances) error {
	const reps = 3
	var trs []*pipelineTrace
	var probeWalls []float64
	probeMsgs := 0 // delivered probe messages; the simulator calls its tracer one rank at a time
	for i := 0; i < reps; i++ {
		k := i % len(seeds)
		pf := tuned[k].Profile
		var probeWall, probeCPU time.Duration
		if s.probed {
			probeMsgs = 0
			w, err := s.world(seeds[k], mpi.WithTracer(func(mpi.TraceEvent) { probeMsgs++ }))
			if err != nil {
				return err
			}
			probeCPU = cpuIt(func() {
				probeWall = timeIt(func() { pf, err = probe.Measure(w, probeConfig()) })
			})
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			probeWalls = append(probeWalls, ms(probeWall))
		}
		tr, err := tracePipeline(b, pf, s.options(seeds[k]), tuned[k])
		if err != nil {
			return err
		}
		tr.cpu += probeCPU
		trs = append(trs, tr)
	}
	setPipelineLayers(b, trs)
	cpus := make([]float64, len(trs))
	for i, tr := range trs {
		cpus[i] = tr.cpu.Seconds()
	}
	b.set("trace.overhead_pct", "%", pct(median(cpus), median(tunes)))

	// Model error: the prediction against the simulator, whole barrier
	// (median over the inputs) and per stage of the first input (one cold
	// instance, every rank entering at virtual t=0).
	errs := make([]float64, len(seeds))
	for k := range seeds {
		errs[k] = math.Abs(pct(sims[k].tuned.Mean, tuned[k].PredictedCost()))
	}
	b.set("predict.err_pct", "%", median(errs))
	stageDone, err := simStageCompletion(s, seeds[0], tuned[0])
	if err != nil {
		return err
	}
	setStageErrors(b, predict.New(tuned[0].Profile).Timeline(tuned[0].Schedule()), stageDone)
	b.set("runtime.gc_per_1k_barriers", "count", float64(inst.gcs)/float64(inst.n)*1000)
	b.set("runtime.alloc_bytes_per_barrier", "B", float64(inst.allocBytes)/float64(inst.n))

	// The live transport is idle in a tune workload; its layers are
	// measured on the reference mesh so they stay comparable across
	// workloads.
	ref, err := referenceMesh(b, min(b.phase()/2, time.Second))
	if err != nil {
		return err
	}
	if s.probed {
		b.set("probe.wall_ms", "ms", median(probeWalls))
		b.set("probe.samples", "count", float64(probeMsgs))
	} else {
		b.set("probe.wall_ms", "ms", ref.probeWallMs)
		b.set("probe.samples", "count", float64(ref.probeSamples))
	}
	return nil
}

// simStageCompletion runs one cold simulated instance of the tuned plan
// and returns, per stage, the virtual time the stage's last signal arrived.
func simStageCompletion(s tuneSpec, seed uint64, t *core.Tuned) ([]float64, error) {
	done := make([]float64, t.Plan.Stages)
	// The simulator delivers in scheduler context, one rank at a time, so
	// the tracer callback needs no lock.
	w, err := s.world(seed, mpi.WithTracer(func(ev mpi.TraceEvent) {
		if ev.Tag >= 0 && ev.Tag < len(done) && ev.Arrived > done[ev.Tag] {
			done[ev.Tag] = ev.Arrived
		}
	}))
	if err != nil {
		return nil, err
	}
	if _, err := run.MeasureCold(w, t.Func(), 1); err != nil {
		return nil, fmt.Errorf("simulating one traced instance: %w", err)
	}
	for k := 1; k < len(done); k++ {
		done[k] = math.Max(done[k], done[k-1])
	}
	return done, nil
}

// stageSlots is the number of plan stages reported per stage: the stage
// count of the mesh workloads' plan. Longer plans report their first
// stageSlots stages; the whole-barrier error covers the rest.
const stageSlots = 5

// setStageErrors records predict.stage_err_pct.s<k>: the distance between
// the predicted completion of stage k (latest rank) and the observed one,
// as a share of the prediction.
func setStageErrors(b *bench, timeline [][]float64, observed []float64) {
	for k := 0; k < stageSlots; k++ {
		v := 0.0
		if k < len(timeline) && k < len(observed) {
			pred := 0.0
			for _, x := range timeline[k] {
				pred = math.Max(pred, x)
			}
			v = math.Abs(pct(observed[k], pred))
		}
		b.set(fmt.Sprintf("predict.stage_err_pct.s%d", k), "%", v)
	}
}
