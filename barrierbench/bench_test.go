package main

import (
	"testing"

	"topobarrier/internal/core"
)

// tuneOnce runs a tune workload's tuning loop and simulated measurement
// for one seed, with the simulation shortened, and fails the test on any
// output-check failure.
func tuneOnce(t *testing.T, spec tuneSpec, seed uint64) ([]*core.Tuned, []simResult) {
	t.Helper()
	b := newBench(seed, 1e-3, false)
	seeds := spec.seeds(seed)
	pls := make([]platform, len(seeds))
	for k := range seeds {
		var err error
		if pls[k], err = spec.setup(seeds[k]); err != nil {
			t.Fatal(err)
		}
	}
	tuned, _, err := tuneLoop(b, spec, seeds, pls)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]simResult, len(seeds))
	inst := &instances{p: tuned[0].Plan.P}
	for k := range seeds {
		if sims[k], err = simulate(b, spec, seeds[k], tuned[k], inst); err != nil {
			t.Fatal(err)
		}
	}
	if b.failed != 0 || inst.violations != 0 {
		t.Fatalf("seed %d: %d of %d output checks failed, %d barrier violations", seed, b.failed, b.attempted, inst.violations)
	}
	return tuned, sims
}

// TestTuneDeterminism pins the quality guards: the same seed twice gives
// the same schedules, tuned_cost_us, sim_barrier_us and sim_speedup, and a
// second seed passes every output check too.
func TestTuneDeterminism(t *testing.T) {
	for name, spec := range map[string]tuneSpec{"tune-quad-p32": tuneQuadP32, "tune-p1024": tuneP1024} {
		spec.simIters, spec.instances = 10, 20
		t.Run(name, func(t *testing.T) {
			a, simA := tuneOnce(t, spec, 1)
			b, simB := tuneOnce(t, spec, 1)
			for k := range a {
				if !a[k].Schedule().Equal(b[k].Schedule()) {
					t.Errorf("input %d: same seed, different schedules:\n%s\n%s", k, a[k].Schedule(), b[k].Schedule())
				}
				if a[k].PredictedCost() != b[k].PredictedCost() {
					t.Errorf("input %d: same seed, tuned cost %g then %g", k, a[k].PredictedCost(), b[k].PredictedCost())
				}
				if simA[k] != simB[k] {
					t.Errorf("input %d: same seed, simulated %+v then %+v", k, simA[k], simB[k])
				}
			}
			tuneOnce(t, spec, 2)
		})
	}
}

// TestMeshPlanDeterministic pins the mesh workloads' plan: it comes from
// the noise-free profile, so every seed deploys the same schedule.
func TestMeshPlanDeterministic(t *testing.T) {
	var first *core.Tuned
	for seed := uint64(1); seed <= 3; seed++ {
		fab, err := meshFabric(8, seed)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := core.Tune(fab.TrueProfile(), meshPlanOptions)
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(seed, 1, false)
		checkTuned(b, tuned)
		if b.failed != 0 {
			t.Fatalf("seed %d: mesh plan fails its output check", seed)
		}
		if first == nil {
			first = tuned
		} else if !tuned.Schedule().Equal(first.Schedule()) {
			t.Fatalf("seed %d deploys %s, seed 1 deployed %s", seed, tuned.Schedule(), first.Schedule())
		}
	}
}

// TestMeshLoop runs the closed loop on a small observed hybrid mesh: every
// instance is recorded and passes the barrier check, and the tracer's
// spans are counted.
func TestMeshLoop(t *testing.T) {
	m, err := dialMesh(meshHybridP8.p, meshHybridP8.nodes, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	fab, err := meshFabric(meshHybridP8.p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := core.Tune(fab.TrueProfile(), meshPlanOptions)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second call continues the tag-window parity
		res, err := m.loop(tuned.Plan, 0, 50, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.n != 50 || len(res.lat) != 50 || res.violations != 0 {
			t.Fatalf("recorded %d instances (%d latencies, %d violations), want 50, 50, 0", res.n, len(res.lat), res.violations)
		}
		if res.spans == 0 {
			t.Fatal("observed mesh recorded no spans")
		}
	}
}

// TestInstancesFlagEarlyExit shows the outside-in barrier check catching a
// rank that leaves an instance before another rank has entered it.
func TestInstancesFlagEarlyExit(t *testing.T) {
	entry := [][]float64{{0, 10}, {1, 12}}
	exit := [][]float64{{5, 11}, {6, 14}} // instance 1: rank 0 exits at 11 before rank 1 enters at 12
	var in instances
	in.add(entry, exit, 2)
	if in.violations != 1 {
		t.Fatalf("violations = %d, want 1", in.violations)
	}
	if in.n != 2 || len(in.lat) != 2 {
		t.Fatalf("recorded %d instances (%d latencies), want 2", in.n, len(in.lat))
	}
}

// TestTailQuantile pins the tail rule: the highest percentile that leaves
// at least ten samples beyond it.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{1000, "p99"}, {999, "p90"}, {100, "p90"}, {99, "p50"}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, got := tailQuantile(xs); got != tc.want {
			t.Errorf("n=%d: tail %s, want %s", tc.n, got, tc.want)
		}
	}
}
