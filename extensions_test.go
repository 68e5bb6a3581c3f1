package topobarrier_test

import (
	"testing"

	"topobarrier"
)

func hexWorld(t testing.TB, p int, seed uint64) (*topobarrier.World, *topobarrier.Fabric) {
	t.Helper()
	fab, err := topobarrier.NewFabric(topobarrier.HexCluster(), topobarrier.RoundRobin{}, p, topobarrier.GigEParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return topobarrier.NewWorld(fab), fab
}

func TestPublicSearchImprovesSeed(t *testing.T) {
	_, fab := hexWorld(t, 24, 1)
	prof := fab.TrueProfile()
	pd := topobarrier.NewPredictor(prof)
	seed := topobarrier.Dissemination(24)
	res, err := topobarrier.AnnealSearch(pd, seed, topobarrier.AnnealOptions{Seed: 1, Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > pd.Cost(seed) {
		t.Fatalf("search worse than seed")
	}
	if !res.Schedule.IsBarrier() {
		t.Fatalf("search result not a barrier")
	}
	if _, err := topobarrier.ExhaustiveSearch(pd, 2, false); err == nil {
		t.Fatalf("intractable exhaustive accepted")
	}
}

func TestPublicCollectives(t *testing.T) {
	w, fab := hexWorld(t, 36, 2)
	prof := fab.TrueProfile()
	pd := topobarrier.NewPredictor(prof)
	tree := topobarrier.ClusterRanks(prof, topobarrier.ClusterOptions{MaxDepth: 1})

	b, err := topobarrier.HierBcast(pd, tree, topobarrier.PaperBuilders())
	if err != nil {
		t.Fatal(err)
	}
	if err := topobarrier.ValidateBroadcast(w, b, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	g, err := topobarrier.HierGather(pd, tree, topobarrier.PaperBuilders())
	if err != nil {
		t.Fatal(err)
	}
	if err := topobarrier.ValidateGather(w, g, 0, 0.5, []int{0, 35}); err != nil {
		t.Fatal(err)
	}
	hier, err := topobarrier.MeasureCold(w, topobarrier.TransferFunc(b, 64), 5)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := topobarrier.MeasureCold(w, topobarrier.TransferFunc(topobarrier.BinomialBcast(36), 64), 5)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Mean >= bin.Mean {
		t.Fatalf("hierarchical bcast %.1fµs not faster one-shot than binomial %.1fµs",
			hier.Mean*1e6, bin.Mean*1e6)
	}
}

func TestPublicTraceBarrier(t *testing.T) {
	fab, err := topobarrier.NewFabric(topobarrier.QuadCluster(), topobarrier.RoundRobin{}, 16, topobarrier.GigEParams(3))
	if err != nil {
		t.Fatal(err)
	}
	tl, elapsed, err := topobarrier.TraceBarrier(fab, topobarrier.MPIBarrier)
	if err != nil {
		t.Fatal(err)
	}
	// A binomial tree over 16 ranks delivers 2·15 signals.
	if len(tl.All) != 30 || len(tl.Events) != 60 {
		t.Fatalf("traced %d messages from %d spans, want 30 from 60", len(tl.All), len(tl.Events))
	}
	if len(tl.CriticalPath()) == 0 {
		t.Fatalf("no critical path")
	}
	if _, end := tl.Span(); end > elapsed+1e-9 {
		t.Fatalf("message arrives at %g, after the run ended at %g", end, elapsed)
	}
	if len(tl.LinkBlame(fab.TrueProfile())) == 0 {
		t.Fatalf("no link blame")
	}
}
