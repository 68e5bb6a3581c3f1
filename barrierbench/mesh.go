package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// meshSpec is one live-mesh workload: P in-process ranks, each a
// persistent goroutine on its own netmpi.Peer.
type meshSpec struct {
	p int
	// nodes is the co-location vector: ranks sharing a node id talk over
	// shared-memory rings, the rest over loopback TCP. nil is pure TCP.
	nodes []int
	// observed turns on the telemetry registry, the span tracer and the
	// flight recorder, configured as runbarrier -net -telemetry -flight-dir
	// configures them.
	observed bool
}

var meshHybridP8 = meshSpec{p: 8, nodes: []int{0, 0, 0, 0, 1, 1, 1, 1}}

var meshTCPP8Observed = meshSpec{p: 8, observed: true}

const (
	meshTuneBatch  = 40 // plan builds after each barrier batch, timed for tune_s
	meshSimIters   = 2000
	meshBatch      = 2000 // barriers per closed-loop batch between bookkeeping pauses
	meshWarmup     = 200
	maxRate        = 40000 // barriers per second, over twice a P=8 hybrid mesh on two cores
	windowBatch    = 32    // barriers per traced window; the last one is merged
	dialTimeout    = 10 * time.Second
	barrierTimeout = 5 * time.Second
	tracerCap      = 1 << 18 // runbarrier's tracer cap under -flight-dir
	flightWindows  = 16
)

// flightDir receives a flight-recorder dump when a barrier fails; it lies
// under the build directory in the working tree.
var flightDir = filepath.Join(".bench_build", "flight")

// meshPlanOptions tunes the mesh plan from the noise-free profile. The
// refinement seed is fixed so every run deploys the same schedule. One
// refinement worker (the result is the same at any count): in a
// millisecond search a second worker's hand-offs and scheduler spinning
// would outweigh the tuner's own work in tune_s.
var meshPlanOptions = core.Options{Refine: 2000, RefineSeed: 1, RefineWorkers: 1}

func meshFabric(p int, seed uint64) (*fabric.Fabric, error) {
	return fabric.ScaleClusterFabric(p, 2, seed)
}

// meshTuneSpec describes the simulated platform the mesh plan is tuned
// for, so the tune workloads' simulated measurements apply to it.
func meshTuneSpec(spec meshSpec) tuneSpec {
	return tuneSpec{
		fabric:   func(seed uint64) (*fabric.Fabric, error) { return meshFabric(spec.p, seed) },
		simIters: meshSimIters,
	}
}

// mesh is one formed mesh with its observability hooks (nil when off).
type mesh struct {
	peers  []*netmpi.Peer
	tracer *telemetry.Tracer
	flight *critpath.FlightRecorder
	// next is the number of barriers run so far: its parity picks the tag
	// window of the next barrier, so adjacent barriers never share tags.
	next int
}

func dialMesh(p int, nodes []int, observed bool) (*mesh, error) {
	m := &mesh{}
	var opts []netmpi.Option
	if observed {
		m.tracer = telemetry.NewTracer()
		m.tracer.SetCap(tracerCap)
		m.flight = critpath.NewFlightRecorder(m.tracer, p, flightWindows, flightDir)
		opts = append(opts, netmpi.WithTelemetry(telemetry.NewRegistry()), netmpi.WithTracer(m.tracer))
	}
	peers, err := netmpi.HybridMesh(p, nodes, dialTimeout, opts...)
	if err != nil {
		return nil, err
	}
	m.peers = peers
	return m, nil
}

func (m *mesh) close() { netmpi.CloseMesh(m.peers) }

// loopResult is one closed-loop phase.
type loopResult struct {
	instances
	// spans is what the tracer recorded, evicted spans included; counted
	// only in phases without an after hook, which may drain the tracer.
	spans int
}

// loop runs back-to-back barriers of pl on persistent rank goroutines for
// at least d (at least one batch). Each rank enters its next barrier as
// soon as it leaves the last; the coordinator only hands out batches of n
// barriers and collects the per-rank entry and exit times afterwards, so
// no goroutine is started per barrier. after, when non-nil, runs between
// batches outside the timed span.
func (m *mesh) loop(pl *run.Plan, d time.Duration, n int, after func()) (*loopResult, error) {
	p := len(m.peers)
	entry, exit := make([][]float64, p), make([][]float64, p)
	for r := range entry {
		entry[r], exit[r] = make([]float64, n), make([]float64, n)
	}
	epoch := time.Now()
	starts := make([]chan int, p)
	done := make(chan error, p) // one reply per rank per batch
	var wg sync.WaitGroup
	for r := range m.peers {
		starts[r] = make(chan int)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pe := m.peers[r]
			for first := range starts[r] {
				var err error
				for k := 0; k < n; k++ {
					entry[r][k] = time.Since(epoch).Seconds()
					if err = pe.Barrier(pl, ((first+k)%2)*run.TagSpan, barrierTimeout); err != nil {
						break
					}
					exit[r][k] = time.Since(epoch).Seconds()
				}
				done <- err
			}
		}(r)
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
		wg.Wait()
	}()

	// Reserve for the fastest plausible rate up front, so the record's
	// growth does not depend on how many barriers the phase achieved.
	reserve := n + int(d.Seconds()*maxRate)
	res := &loopResult{instances: instances{p: p,
		lat: make([]float64, 0, reserve), skew: make([]float64, 0, reserve), cycles: make([]float64, 0, reserve)}}
	m.tracer.Take()
	dropped0 := m.tracer.Dropped()
	var m0, m1 runtime.MemStats
	for start := time.Now(); res.n == 0 || time.Since(start) < d; {
		runtime.ReadMemStats(&m0)
		for _, c := range starts {
			c <- m.next
		}
		var firstErr error
		for range starts {
			if err := <-done; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		runtime.ReadMemStats(&m1)
		m.next += n
		if firstErr != nil {
			if path, err := m.flight.Dump("barrier-failure"); err == nil && path != "" {
				fmt.Printf("flight recorder dumped to %s\n", path)
			}
			return nil, firstErr
		}
		res.mallocs += m1.Mallocs - m0.Mallocs
		res.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		res.gcs += m1.NumGC - m0.NumGC
		res.add(entry, exit, n)
		if after != nil {
			after()
		}
	}
	if m.tracer != nil && after == nil {
		res.spans = len(m.tracer.Take()) + int(m.tracer.Dropped()-dropped0)
	}
	return res, nil
}

// meshSetup is one formed, probed and planned mesh.
type meshSetup struct {
	m         *mesh
	prof      *profile.Profile // live-probed
	probe     *netmpi.ProbeReport
	probeWall time.Duration
	tuned     *core.Tuned // from the noise-free fabric profile
}

// setupMesh forms the mesh, probes it live and builds the plan.
func setupMesh(spec meshSpec, seed uint64, observed bool) (*meshSetup, error) {
	m, err := dialMesh(spec.p, spec.nodes, observed)
	if err != nil {
		return nil, fmt.Errorf("mesh formation: %w", err)
	}
	su := &meshSetup{m: m}
	su.probeWall = timeIt(func() {
		su.prof, su.probe, err = netmpi.ProbeProfileOpts(m.peers, netmpi.ProbeOptions{MaxIters: 32})
	})
	if err != nil {
		m.close()
		return nil, fmt.Errorf("live probe: %w", err)
	}
	fab, err := meshFabric(spec.p, seed)
	if err == nil {
		su.tuned, err = core.Tune(fab.TrueProfile(), meshPlanOptions)
	}
	if err != nil {
		m.close()
		return nil, fmt.Errorf("plan: %w", err)
	}
	return su, nil
}

// runMesh runs a mesh workload.
func runMesh(b *bench, spec meshSpec) error {
	var setups, probeWalls []float64
	var profs []*profile.Profile
	var su *meshSetup
	for i := 0; i < setupReps; i++ {
		if su != nil {
			su.m.close()
		}
		var err error
		setups = append(setups, timeIt(func() { su, err = setupMesh(spec, b.seed, spec.observed) }).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		profs = append(profs, su.prof)
		probeWalls = append(probeWalls, ms(su.probeWall))
	}
	defer su.m.close()
	live := minProfile(profs)
	checkTuned(b, su.tuned)

	sim, err := simCompare(b, meshTuneSpec(spec), b.seed, su.tuned)
	if err != nil {
		return err
	}
	cost, err := measuredCost(meshTuneSpec(spec), b.seed, su.tuned)
	if err != nil {
		return err
	}

	pl := su.tuned.Plan
	if _, err := su.m.loop(pl, 0, meshWarmup, nil); err != nil {
		return fmt.Errorf("warm-up barriers: %w", err)
	}
	// Without tracing, a batch of plan builds follows every batch of
	// barriers, outside its timed span, so tune_s samples the host's load
	// across the whole phase rather than at one or two moments of it. The
	// traced run leaves the closed loop as it is: its telemetry layers
	// count the spans of an uninterrupted phase.
	var tuneCPU time.Duration
	var tuneBatches int
	var tuneErr error
	var tuneBatch func()
	if !b.trace {
		tuneBatch = func() {
			if tuneErr == nil {
				var d time.Duration
				d, tuneErr = tuneMeshPlan(b, spec, su.tuned)
				tuneCPU += d
				tuneBatches++
			}
		}
	}
	res, err := su.m.loop(pl, b.phase(), meshBatch, tuneBatch)
	if err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	if tuneErr != nil {
		return tuneErr
	}
	tallyInstances(b, &res.instances)

	if b.trace {
		return meshTraced(b, spec, su, live, res, probeWalls)
	}
	b.set("setup_s", "s", median(setups))
	b.set("tune_s", "s", tuneCPU.Seconds()/float64(tuneBatches*meshTuneBatch))
	b.set("tuned_cost_us", "us", cost*1e6)
	b.set("sim_barrier_us", "us", sim.tuned.Mean*1e6)
	b.set("sim_speedup", "ratio", sim.tree.Mean/sim.tuned.Mean)
	setBarrierMetrics(b, &res.instances)
	return nil
}

// tuneMeshPlan builds the mesh plan meshTuneBatch times from the
// noise-free profile, checks that every build deploys want, and returns
// the batch's processor time. A build takes about a millisecond, too short
// to time alone; tune_s is the processor time per build over every batch
// of the run. The batch starts right after a collection, so the
// collections that fall inside it, and their cost, are the same from batch
// to batch. It runs on one processor (GOMAXPROCS 1): the build has one
// refinement worker, and on a second processor the runtime's
// idle-priority mark workers and spinning scheduler threads would add
// processor time that follows how long the host stalls a collection, not
// the build's work.
func tuneMeshPlan(b *bench, spec meshSpec, want *core.Tuned) (time.Duration, error) {
	fab, err := meshFabric(spec.p, b.seed)
	if err != nil {
		return 0, err
	}
	pf := fab.TrueProfile()
	built := make([]*core.Tuned, meshTuneBatch)
	errs := make([]error, meshTuneBatch)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	d := cpuIt(func() {
		for i := range built {
			built[i], errs[i] = core.Tune(pf, meshPlanOptions)
		}
	})
	for i, t := range built {
		if !b.check(errs[i] == nil && t.Schedule().Equal(want.Schedule()), "mesh plan build %d: %v", i, errs[i]) {
			return 0, fmt.Errorf("mesh plan is not reproducible")
		}
	}
	return d, nil
}

// minProfile merges live probes element-wise by minimum: the prober's own
// rule within one probe (host noise only ever adds latency), applied across
// the set-up repetitions.
func minProfile(pfs []*profile.Profile) *profile.Profile {
	out := profile.New(pfs[0].Platform, pfs[0].P)
	for i := 0; i < out.P; i++ {
		for j := 0; j < out.P; j++ {
			o, l := math.Inf(1), math.Inf(1)
			for _, pf := range pfs {
				o, l = math.Min(o, pf.O.At(i, j)), math.Min(l, pf.L.At(i, j))
			}
			out.O.Set(i, j, o)
			out.L.Set(i, j, l)
		}
	}
	return out
}

// tallyInstances counts every observed barrier instance as attempted and
// every one that broke the barrier property as failed.
func tallyInstances(b *bench, in *instances) {
	b.attempted += in.n
	b.failed += in.violations
	if in.violations > 0 {
		fmt.Printf("%d of %d barrier instances let a rank exit before another entered\n", in.violations, in.n)
	}
}

// meshTraced is the traced run of a mesh workload: the traced pipeline of
// the plan build, the transport and telemetry layers, and the model error
// of the merged live profile against merged spans.
func meshTraced(b *bench, spec meshSpec, su *meshSetup, live *profile.Profile, base *loopResult, probeWalls []float64) error {
	fab, err := meshFabric(spec.p, b.seed)
	if err != nil {
		return err
	}
	var trs []*pipelineTrace
	for i := 0; i < 3; i++ {
		tr, err := tracePipeline(b, fab.TrueProfile(), meshPlanOptions, su.tuned)
		if err != nil {
			return err
		}
		trs = append(trs, tr)
	}
	setPipelineLayers(b, trs)
	b.set("probe.wall_ms", "ms", median(probeWalls))
	b.set("probe.samples", "count", float64(su.probe.TotalSamples()))
	b.set("runtime.gc_per_1k_barriers", "count", float64(base.gcs)/float64(base.n)*1000)
	b.set("runtime.alloc_bytes_per_barrier", "B", float64(base.allocBytes)/float64(base.n))
	return transportLayers(b, spec, su.m, su.tuned, live, base, b.phase()/2, true)
}

// transportLayers measures the netmpi and telemetry layers of spec's mesh.
// m is the mesh in spec's own configuration and base its closed-loop
// phase. A second mesh with the observability config flipped prices
// telemetry; windows of traced barriers on whichever mesh is observed are
// merged by critpath into per-stage and per-link times. With own set (the
// workload's own mesh, not the reference mesh of a tune workload) the
// merged stages are also compared with predict.Timeline on the live-probed
// profile pf, and the traced windows' latency with base's.
func transportLayers(b *bench, spec meshSpec, m *mesh, t *core.Tuned, pf *profile.Profile, base *loopResult, phase time.Duration, own bool) error {
	other, err := dialMesh(spec.p, spec.nodes, !spec.observed)
	if err != nil {
		return fmt.Errorf("mesh formation: %w", err)
	}
	defer other.close()
	pl := t.Plan
	if _, err := other.loop(pl, 0, meshWarmup, nil); err != nil {
		return fmt.Errorf("warm-up barriers: %w", err)
	}
	flipped, err := other.loop(pl, phase, meshBatch, nil)
	if err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	tallyInstances(b, &flipped.instances)
	observed, plain := base, flipped
	om := m
	if !spec.observed {
		observed, plain, om = flipped, base, other
	}
	b.set("telemetry.overhead_pct", "%", pct(median(observed.lat), median(plain.lat)))
	b.set("telemetry.spans_per_barrier", "count", float64(observed.spans)/float64(observed.n))
	b.set("telemetry.dropped", "count", float64(om.tracer.Dropped()))

	// Traced windows: after each batch, merge the window's spans and keep
	// the latest barrier instance's per-stage and per-link times.
	var makespans, msgs []float64
	stageDone := make([][]float64, pl.Stages)
	sendDur := map[string][]float64{}
	recvWait := map[string][]float64{}
	var mergeErr error
	om.tracer.Take()
	traced, err := om.loop(pl, phase, windowBatch, func() {
		tl, err := critpath.Merge(om.tracer.Take(), spec.p, -1)
		if err != nil {
			mergeErr = err
			return
		}
		start, end := tl.Span()
		makespans = append(makespans, end-start)
		msgs = append(msgs, float64(len(tl.Messages)))
		done := make([]float64, pl.Stages)
		for _, msg := range tl.Messages {
			if msg.Stage < len(done) {
				done[msg.Stage] = math.Max(done[msg.Stage], msg.Arrived-start)
			}
		}
		for k := range done {
			if k > 0 {
				done[k] = math.Max(done[k], done[k-1])
			}
			stageDone[k] = append(stageDone[k], done[k])
		}
		for _, msg := range tl.All {
			sendDur[msg.Transport] = append(sendDur[msg.Transport], msg.Sent-msg.SendStart)
			recvWait[msg.Transport] = append(recvWait[msg.Transport], msg.Wait)
		}
	})
	if err != nil {
		return fmt.Errorf("traced barrier: %w", err)
	}
	if !b.check(mergeErr == nil, "critpath merge: %v", mergeErr) {
		return nil
	}
	tallyInstances(b, &traced.instances)
	if own {
		b.set("trace.overhead_pct", "%", pct(median(traced.lat), median(base.lat)))
	}

	us := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0 // no link of this transport in the mesh
		}
		return median(xs) * 1e6
	}
	for _, tr := range []string{"tcp", "shm"} {
		b.set("netmpi.send_us."+tr, "us", us(sendDur[tr]))
		b.set("netmpi.recv_wait_us."+tr, "us", us(recvWait[tr]))
	}
	medDone := make([]float64, pl.Stages)
	for k := range medDone {
		medDone[k] = median(stageDone[k])
	}
	for k := 0; k < stageSlots; k++ {
		v := 0.0
		if k < len(medDone) {
			v = medDone[k]
			if k > 0 {
				v -= medDone[k-1]
			}
		}
		b.set(fmt.Sprintf("netmpi.stage_us.s%d", k), "us", v*1e6)
	}
	b.set("netmpi.arrival_skew_us", "us", median(base.skew)*1e6)
	// The tail is the lowest of the batches' p99s. Host noise only ever
	// adds latency and comes in bursts that swamp whole batches on a shared
	// machine, so the quietest batch is the cleanest observation of the
	// program's own tail, the way the repository's throughput floors take
	// the best of several runs; a tail the program causes is in every batch.
	b.set("netmpi.barrier_p99_us", "us", quantile(base.tails, 0)*1e6)
	perBarrier := median(msgs)
	b.set("netmpi.msgs_per_barrier", "count", perBarrier)
	b.set("netmpi.allocs_per_msg", "count", float64(base.mallocs)/(float64(base.n)*perBarrier))

	if own {
		pd := predict.New(pf)
		b.set("predict.err_pct", "%", math.Abs(pct(median(makespans), pd.Cost(t.Schedule()))))
		setStageErrors(b, pd.Timeline(t.Schedule()), medDone)
	}
	return nil
}

// refMesh is the reference mesh's probe, reported by workloads that do not
// probe a live mesh themselves.
type refMesh struct {
	probeWallMs  float64
	probeSamples int
}

// referenceMesh measures the netmpi and telemetry layers of a tune
// workload on the mesh-hybrid-p8 configuration with short phases, so those
// layers are reported, and stay flat, where the transport is idle.
func referenceMesh(b *bench, phase time.Duration) (*refMesh, error) {
	su, err := setupMesh(meshHybridP8, b.seed, false)
	if err != nil {
		return nil, err
	}
	defer su.m.close()
	pl := su.tuned.Plan
	if _, err := su.m.loop(pl, 0, meshWarmup, nil); err != nil {
		return nil, fmt.Errorf("warm-up barriers: %w", err)
	}
	base, err := su.m.loop(pl, phase, meshBatch, nil)
	if err != nil {
		return nil, fmt.Errorf("barrier: %w", err)
	}
	tallyInstances(b, &base.instances)
	if err := transportLayers(b, meshHybridP8, su.m, su.tuned, su.prof, base, phase, false); err != nil {
		return nil, err
	}
	return &refMesh{probeWallMs: ms(su.probeWall), probeSamples: su.probe.TotalSamples()}, nil
}
