package critpath_test

import (
	"math"
	"testing"

	"topobarrier/internal/baseline"
	"topobarrier/internal/core"
	"topobarrier/internal/critpath"
	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/probe"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/topo"
)

func quadFabric(t testing.TB, p int) *fabric.Fabric {
	t.Helper()
	f, err := fabric.QuadClusterFabric(topo.RoundRobin{}, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSimulateMPITree: the P=8 binomial MPI barrier delivers 2·7 = 14
// signals, each as one send/recv span pair, and none lands after the run.
func TestSimulateMPITree(t *testing.T) {
	tl, elapsed, err := critpath.Simulate(quadFabric(t, 8), baseline.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.All) != 14 || len(tl.Events) != 28 || tl.Unmatched != 0 {
		t.Fatalf("%d messages from %d spans (%d unmatched), want 14 from 28", len(tl.All), len(tl.Events), tl.Unmatched)
	}
	for _, m := range tl.All {
		if m.Arrived > elapsed+1e-9 {
			t.Fatalf("message %+v arrives after the run ended at %g", m, elapsed)
		}
		if m.Transport != "sim" || m.Wait != m.Arrived-m.Sent {
			t.Fatalf("message %+v: want transport sim and wait = delivery latency", m)
		}
	}
	for r, off := range tl.Offsets {
		if off != 0 || !tl.Estimated[r] {
			t.Fatalf("rank %d offset %g (known %v) on a shared virtual clock", r, off, tl.Estimated[r])
		}
	}
}

// TestSimulateCriticalPathEndsAtElapsed: for every barrier the realized
// chain is causal, has no NaN hop, and its makespan is the run's elapsed
// virtual time to the nanosecond resolution of the spans.
func TestSimulateCriticalPathEndsAtElapsed(t *testing.T) {
	const p = 12
	fab := quadFabric(t, p)
	cfg := probe.Default()
	cfg.Replicate = true
	tuned, err := core.ProfileAndTune(mpi.NewWorld(fab), cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]run.Func{
		"tree":          run.ScheduleFunc(sched.Tree(p)),
		"linear":        run.ScheduleFunc(sched.Linear(p)),
		"dissemination": run.ScheduleFunc(sched.Dissemination(p)),
		"mpi":           baseline.Tree,
		"hybrid":        tuned.Func(),
	} {
		tl, elapsed, err := critpath.Simulate(fab, fn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := critpath.Analyze(tl, nil, nil)
		if math.Abs(rep.RealizedCost-elapsed) > 1e-9 {
			t.Errorf("%s: realized makespan %g, elapsed %g", name, rep.RealizedCost, elapsed)
		}
		chain := rep.Realized
		if len(chain) == 0 {
			t.Fatalf("%s: empty critical path", name)
		}
		if last := chain[len(chain)-1].Arrived; math.Abs(last-elapsed) > 1e-9 {
			t.Errorf("%s: chain ends at %g, run at %g", name, last, elapsed)
		}
		for i, h := range chain {
			if math.IsNaN(h.Sent) || math.IsNaN(h.Arrived) {
				t.Errorf("%s: hop %d has NaN times: %v", name, i, h)
			}
			if i > 0 && h.Sent < chain[i-1].Arrived {
				t.Errorf("%s: hop %d sent at %g before hop %d arrived at %g", name, i, h.Sent, i-1, chain[i-1].Arrived)
			}
		}
	}
}

// TestSimulateBlameIntraNode: round-robin P=8 on the quad cluster fills one
// node, so every link is intra-node; blame sees every direction the
// dissemination used, each with a fast positive floor.
func TestSimulateBlameIntraNode(t *testing.T) {
	fab := quadFabric(t, 8)
	tl, _, err := critpath.Simulate(fab, baseline.Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	blame := tl.LinkBlame(fab.TrueProfile())
	if len(blame) != 8*3 {
		t.Fatalf("blamed %d directions, want 24", len(blame))
	}
	for _, b := range blame {
		if b.Count != 1 || b.Observed <= 0 || b.Expected <= 0 {
			t.Fatalf("malformed blame %+v", b)
		}
		if b.Observed > 20e-6 {
			t.Fatalf("intra-node link %d→%d floor %.1fµs too slow", b.From, b.To, b.Observed*1e6)
		}
	}
}

// TestSimulateBlameObservesHierarchy: on two nodes the observed delivery
// floors expose the locality gap between cross-node and intra-node links.
func TestSimulateBlameObservesHierarchy(t *testing.T) {
	fab := quadFabric(t, 16)
	tl, _, err := critpath.Simulate(fab, baseline.Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	var local, remote []float64
	for _, b := range tl.LinkBlame(fab.TrueProfile()) {
		if fab.Class(b.From, b.To) == topo.CrossNode {
			remote = append(remote, b.Observed)
		} else {
			local = append(local, b.Observed)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		t.Fatalf("expected both link classes in a 2-node dissemination")
	}
	if mean(remote) < 5*mean(local) {
		t.Fatalf("traces do not expose the locality gap: remote %.1fµs vs local %.1fµs",
			mean(remote)*1e6, mean(local)*1e6)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
