// Large-P scaling benchmarks: the Eq. 3 closure kernels (the mat.Propagate
// cube vs the sparse-frontier closure) at P = 128/256/1024, and end-to-end
// mutation throughput of the cluster-pruned batched search at the same rank
// counts. The acceptance bar is a ≥10× mutation-throughput advantage over
// the from-scratch evaluator at P = 256, pinned by
// TestLargePSearchSpeedupFloor.
package topobarrier_test

import (
	"fmt"
	"testing"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/search"
	"topobarrier/internal/sss"
	"topobarrier/internal/stats"
)

// scaleProfile builds the noise-free profile of the synthetic hierarchical
// cluster at p ranks (about one dual-socket node per 32 ranks).
func scaleProfile(tb testing.TB, p int) *profile.Profile {
	tb.Helper()
	nodes := (p + 31) / 32
	if nodes < 1 {
		nodes = 1
	}
	f, err := fabric.ScaleClusterFabric(p, nodes, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return f.TrueProfile()
}

// scaleClusters extracts the SSS leaf partition of a profile — the structure
// the cluster-pruned proposer biases mutations by.
func scaleClusters(pf *profile.Profile) [][]int {
	var clusters [][]int
	for _, leaf := range sss.Tree(pf, sss.Options{}).Leaves() {
		clusters = append(clusters, leaf.Ranks)
	}
	return clusters
}

// BenchmarkKnowledgeClosure compares one full Eq. 3 closure verification of a
// dissemination barrier through the dense O(P³/64) cube (Schedule.Knowledge)
// and the sparse-frontier kernel (mat.FrontierClosure) at large P. Both
// return the same verdict on every schedule — the property tests pin that —
// so the ratio of ns/op between the /dense and /frontier variants of the
// same P is the kernel speedup.
func BenchmarkKnowledgeClosure(b *testing.B) {
	for _, p := range []int{128, 256, 1024} {
		s := sched.Dissemination(p)

		b.Run(fmt.Sprintf("P%d/dense", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ks := s.Knowledge()
				if !ks[len(ks)-1].AllSet() {
					b.Fatal("dissemination must close")
				}
			}
		})

		b.Run(fmt.Sprintf("P%d/frontier", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if !mat.FrontierClosure(s.P, s.Stages) {
					b.Fatal("dissemination must close")
				}
			}
		})
	}
}

// BenchmarkSearchThroughputLargeP reports end-to-end mutation evaluations
// per second of the refinement search in its large-P configuration —
// sparse-frontier knowledge cache, cluster-pruned proposals, best-of-8
// batches — at P = 128/256/1024. Compare mutants/s across the P variants
// for the engine's scaling curve.
func BenchmarkSearchThroughputLargeP(b *testing.B) {
	for _, p := range []int{128, 256, 1024} {
		pf := scaleProfile(b, p)
		pd := predict.New(pf)
		seed := sched.Dissemination(p)
		clusters := scaleClusters(pf)

		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			examined := 0
			b.ResetTimer()
			for n := 0; n < b.N; n += 500 {
				res, err := search.Anneal(pd, seed, search.AnnealOptions{
					Seed: uint64(n + 1), Steps: 500, Restarts: 1, Workers: 1,
					Clusters: clusters, BatchSize: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				examined += res.Examined
			}
			b.StopTimer()
			b.ReportMetric(float64(examined)/b.Elapsed().Seconds(), "mutants/s")
		})
	}
}

// annealThroughput measures the mutation throughput of a single-worker
// anneal in candidates per second, best of three runs — scheduler noise only
// ever slows a run down, so the fastest observation is the cleanest.
func annealThroughput(t *testing.T, pd *predict.Predictor, seed *sched.Schedule, opts search.AnnealOptions) float64 {
	t.Helper()
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		res, err := search.Anneal(pd, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed <= 0 || res.Examined == 0 {
			t.Fatalf("degenerate run: %d examined in %s", res.Examined, elapsed)
		}
		if tp := float64(res.Examined) / elapsed.Seconds(); tp > best {
			best = tp
		}
	}
	return best
}

// scratchThroughput measures the from-scratch evaluator (scratchEvaluate) in
// candidates per second over n mutants of seed, best of three runs.
func scratchThroughput(t *testing.T, pd *predict.Predictor, seed *sched.Schedule, n int) float64 {
	t.Helper()
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		rng := stats.NewRNG(1)
		sink := 0.0
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += scratchEvaluate(pd, seed, rng)
		}
		if tp := float64(n) / time.Since(start).Seconds(); tp > best {
			best = tp
		}
		_ = sink
	}
	return best
}

// TestLargePSearchSpeedupFloor pins the large-P acceptance bar: at P = 256
// the incremental search engine must evaluate mutations at least 10× faster
// than the from-scratch evaluator (clone, mat.Propagate recurrence, cost
// pass) — 3× under the race detector, whose per-word instrumentation
// compresses the gap. The floors were carried over from the earlier bar of
// 5× (2×) over the row-major incremental engine, which ran at about 2.0×
// (1.3× under -race) the from-scratch evaluator on this workload.
func TestLargePSearchSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor in -short mode")
	}
	p := 256
	pf := scaleProfile(t, p)
	pd := predict.New(pf)
	seed := sched.Dissemination(p)
	opts := search.AnnealOptions{
		Seed: 11, Restarts: 1, Workers: 1, Steps: 2000,
		Clusters: scaleClusters(pf), BatchSize: 8,
	}
	// The from-scratch evaluator gets a smaller budget so the measurement
	// stays cheap; throughput is per candidate, so the budgets need not match.
	scratchTP := scratchThroughput(t, pd, seed, 150)
	engineTP := annealThroughput(t, pd, seed, opts)
	ratio := engineTP / scratchTP
	floor := 10.0
	if scaleRaceEnabled {
		floor = 3.0
	}
	t.Logf("P=%d mutation throughput: engine %.0f/s vs scratch %.0f/s (%.1f×, floor %.0f×)",
		p, engineTP, scratchTP, ratio, floor)
	if ratio < floor {
		t.Fatalf("engine/scratch throughput ratio %.2f below the %.0f× floor", ratio, floor)
	}
}
