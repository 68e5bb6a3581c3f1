package baseline

import (
	"testing"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func testWorld(t testing.TB, p int, seed uint64) *mpi.World {
	t.Helper()
	f, err := fabric.QuadClusterFabric(topo.RoundRobin{}, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mpi.NewWorld(f)
}

func TestAllBaselinesSynchronise(t *testing.T) {
	for name, b := range All() {
		for _, p := range []int{1, 2, 3, 5, 7, 8, 9, 16} {
			if err := run.Validate(testWorld(t, p, 1), b, 0.5, nil); err != nil {
				t.Fatalf("%s at p=%d: %v", name, p, err)
			}
		}
	}
}

func TestTreeMatchesScheduleShape(t *testing.T) {
	// The hard-coded binomial tree and the schedule-driven tree must have
	// comparable cost: both cross the node boundary the same number of
	// times. Allow a 2x band for the differing stage-synchronisation slack.
	for _, p := range []int{8, 16, 24} {
		hard, err := run.Measure(testWorld(t, p, 5), Tree, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		interp, err := run.Measure(testWorld(t, p, 5), run.ScheduleFunc(sched.Tree(p)), 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		ratio := hard.Mean / interp.Mean
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("p=%d: hard-coded tree %g vs schedule tree %g (ratio %.2f)", p, hard.Mean, interp.Mean, ratio)
		}
	}
}

func TestLinearIsSlowestAtScale(t *testing.T) {
	p := 32
	lin, err := run.Measure(testWorld(t, p, 2), Linear, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := run.Measure(testWorld(t, p, 2), Tree, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Mean <= tree.Mean {
		t.Fatalf("linear (%g) not slower than tree (%g) at p=%d", lin.Mean, tree.Mean, p)
	}
}

func TestRecursiveDoublingFallbackPath(t *testing.T) {
	// p=12 is not a power of two: RecursiveDoubling must still synchronise
	// via the dissemination fallback.
	if err := run.Validate(testWorld(t, 12, 3), RecursiveDoubling, 0.5, []int{0, 5, 11}); err != nil {
		t.Fatal(err)
	}
	// p=16 takes the pairwise-exchange path.
	if err := run.Validate(testWorld(t, 16, 3), RecursiveDoubling, 0.5, []int{0, 7, 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDisseminationStageCount(t *testing.T) {
	// Count distinct virtual times at which messages arrive for one barrier:
	// dissemination at p=8 should need 3 rounds of cross traffic, far fewer
	// than linear's 2(p-1) serial hops. We just sanity-check relative cost.
	p := 8
	dis, err := run.Measure(testWorld(t, p, 4), Dissemination, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := run.Measure(testWorld(t, p, 4), Linear, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dis.Mean <= 0 || lin.Mean <= 0 {
		t.Fatalf("non-positive means %g %g", dis.Mean, lin.Mean)
	}
}

func BenchmarkBaselineTree64(b *testing.B) {
	w := testWorld(b, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run.Measure(w, Tree, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTreeTagsInExecutionOrder: every rank issues its tree messages in
// increasing tag order, so ordering a traced run by stage orders it in time.
func TestTreeTagsInExecutionOrder(t *testing.T) {
	for _, p := range []int{3, 5, 8, 12, 16} {
		f, err := fabric.QuadClusterFabric(topo.RoundRobin{}, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		lastTag := make([]int, p)
		for i := range lastTag {
			lastTag[i] = -1
		}
		// Deliveries arrive in virtual-time order, and each rank's sends are
		// blocking, so a rank's messages arrive in the order it sent them.
		w := mpi.NewWorld(f, mpi.WithTracer(func(e mpi.TraceEvent) {
			if e.Tag <= lastTag[e.Src] {
				t.Errorf("p=%d: rank %d sent tag %d after tag %d", p, e.Src, e.Tag, lastTag[e.Src])
			}
			lastTag[e.Src] = e.Tag
		}))
		if _, err := w.Run(func(c *mpi.Comm) { Tree(c, 0) }); err != nil {
			t.Fatal(err)
		}
	}
}
