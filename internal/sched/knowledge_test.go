package sched

import (
	"fmt"
	"testing"

	"topobarrier/internal/mat"
	"topobarrier/internal/stats"
)

// The knowledge cache is checked against the reference recurrence,
// mat.Propagate (via Schedule.Knowledge), run from scratch. Most tests come
// in pairs: the TestKnowledgeCache* half runs at rank counts whose rows fit
// one word, the TestFrontierCache* half at word boundaries (P=63..65), where
// multi-word rows and the tail mask matter.

// oracleBarrier is the reference Eq. 3 verdict: the mat.Propagate
// recurrence from the identity, all-set at the end.
func oracleBarrier(s *Schedule) bool {
	ks := s.Knowledge()
	if len(ks) == 0 {
		return s.P == 1
	}
	return ks[len(ks)-1].AllSet()
}

// oracleFirstFullStage is the reference FirstFullStage: the earliest stage
// whose from-scratch knowledge is all-set, or -1.
func oracleFirstFullStage(s *Schedule) int {
	for k, m := range s.Knowledge() {
		if m.AllSet() {
			return k
		}
	}
	return -1
}

// checkKnowledgeAfter compares every cached per-stage matrix against the
// oracle. Past saturation the cache hands out the saturated matrix; that is
// only valid if the from-scratch matrix is also full there.
func checkKnowledgeAfter(t *testing.T, c *FrontierKnowledgeCache, s *Schedule) {
	t.Helper()
	want := s.Knowledge()
	for k := range want {
		got := c.After(s, k)
		if !got.Equal(want[k]) && !got.AllSet() {
			t.Fatalf("%s: knowledge after stage %d diverges", s.Name, k)
		}
		if got.AllSet() && !want[k].AllSet() {
			t.Fatalf("%s: cache claims saturation at stage %d prematurely", s.Name, k)
		}
	}
}

func checkMatchesFromScratch(t *testing.T, p int) {
	t.Helper()
	for _, build := range []func(int) *Schedule{Linear, Dissemination, Tree} {
		s := build(p)
		c := NewFrontierKnowledgeCache(p)
		if got, want := c.Barrier(s), oracleBarrier(s); got != want {
			t.Fatalf("%s: cached verdict %v, from scratch %v", s.Name, got, want)
		}
		checkKnowledgeAfter(t, c, s)
	}
}

func TestKnowledgeCacheMatchesFromScratch(t *testing.T) { checkMatchesFromScratch(t, 9) }

func TestFrontierCacheMatchesFromScratch(t *testing.T) {
	for _, p := range []int{63, 64, 65} {
		checkMatchesFromScratch(t, p)
	}
}

func TestKnowledgeCacheSingleRankAndEmpty(t *testing.T) {
	c := NewFrontierKnowledgeCache(1)
	if !c.Barrier(New("solo", 1)) {
		t.Fatalf("single rank with no stages must synchronise")
	}
	c4 := NewFrontierKnowledgeCache(4)
	if c4.Barrier(New("void", 4)) {
		t.Fatalf("four ranks with no stages cannot synchronise")
	}
	if c4.FirstFullStage(New("void", 4)) != -1 {
		t.Fatalf("FirstFullStage of a non-barrier must be -1")
	}
}

func TestFrontierCacheSingleRankAndEmpty(t *testing.T) {
	solo := New("solo", 1)
	solo.AddStage(mat.NewBool(1))
	if c := NewFrontierKnowledgeCache(1); !c.Barrier(solo) || c.FirstFullStage(solo) != 0 {
		t.Fatalf("single rank must synchronise at stage 0")
	}
	for _, p := range []int{64, 65} {
		c := NewFrontierKnowledgeCache(p)
		if c.Barrier(New("void", p)) {
			t.Fatalf("%d ranks with no stages cannot synchronise", p)
		}
		if c.FirstFullStage(New("void", p)) != -1 {
			t.Fatalf("P=%d FirstFullStage of a non-barrier must be -1", p)
		}
	}
}

func checkFirstFullStage(t *testing.T, p int) {
	t.Helper()
	s := Dissemination(p)
	c := NewFrontierKnowledgeCache(p)
	if got, want := c.FirstFullStage(s), oracleFirstFullStage(s); got != want {
		t.Fatalf("P=%d FirstFullStage = %d, want %d", p, got, want)
	}
}

func TestKnowledgeCacheFirstFullStage(t *testing.T) { checkFirstFullStage(t, 8) }

func TestFrontierCacheFirstFullStage(t *testing.T) {
	for _, p := range []int{63, 64, 65} {
		checkFirstFullStage(t, p)
	}
}

// TestKnowledgeCachePropertyRandomMutations drives a working schedule through
// long random mutation sequences — toggling signals, appending and truncating
// stages — invalidating only the touched stages (mostly via the row-level
// InvalidateRow, sometimes via the coarse Invalidate), and asserts the
// cached verdict never diverges from the from-scratch recurrence. This is
// the correctness contract the incremental search engine rests on.
func TestKnowledgeCachePropertyRandomMutations(t *testing.T) {
	for _, p := range []int{2, 5, 8, 13} {
		rng := stats.NewRNG(uint64(101 + p))
		s := Dissemination(p)
		c := NewFrontierKnowledgeCache(p)
		for step := 0; step < 600; step++ {
			switch rng.Intn(8) {
			case 0: // append an empty stage
				if s.NumStages() < 12 {
					s.AddStage(mat.NewBool(p))
					c.Invalidate(s.NumStages() - 1)
				}
			case 1: // truncate the last stage (models an undone append)
				if s.NumStages() > 1 {
					k := s.NumStages() - 1
					s.Stages = s.Stages[:k]
					c.Invalidate(k)
				}
			case 2: // toggle a random signal, coarse invalidation
				k := rng.Intn(s.NumStages())
				i, j := rng.Intn(p), rng.Intn(p)
				if i == j {
					continue
				}
				s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
				c.Invalidate(k)
			case 3: // toggle a random signal, row-level invalidation
				k := rng.Intn(s.NumStages())
				i, j := rng.Intn(p), rng.Intn(p)
				if i == j {
					continue
				}
				s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
				c.InvalidateRow(k, i)
			default: // toggle a random signal, exact single-bit note
				k := rng.Intn(s.NumStages())
				i, j := rng.Intn(p), rng.Intn(p)
				if i == j {
					continue
				}
				was := s.Stages[k].At(i, j)
				s.Stages[k].Set(i, j, !was)
				noteToggle(c, k, i, j, was)
			}
			if got, want := c.Barrier(s), oracleBarrier(s); got != want {
				t.Fatalf("P=%d step %d: cached verdict %v, from scratch %v\n%s",
					p, step, got, want, s)
			}
			if step%53 == 0 && s.NumStages() > 0 {
				// The cached per-stage matrices themselves must stay exact,
				// not just the verdict: spot-check one stage.
				k := rng.Intn(s.NumStages())
				got := c.After(s, k)
				want := s.Knowledge()[k]
				if !got.Equal(want) && !got.AllSet() {
					t.Fatalf("P=%d step %d: knowledge after stage %d diverges", p, step, k)
				}
				if got.AllSet() && !want.AllSet() {
					t.Fatalf("P=%d step %d: premature saturation at stage %d", p, step, k)
				}
			}
		}
	}
}

// TestFrontierCachePropertyRandomMutations is the property suite above with
// the search engine's evaluated-rejection protocol mixed in (note, evaluate,
// Rollback, revert), rank counts on both sides of the 64-bit word boundary,
// and two seeds: the redundant dissemination pattern and the minimal tree,
// whose every removal breaks the barrier. Every verdict — including the one
// inside each rejection — is checked against the from-scratch recurrence,
// and spot checks compare a stage's matrix and the first full stage against
// the recurrence's per-stage knowledge.
func TestFrontierCachePropertyRandomMutations(t *testing.T) {
	for _, p := range []int{2, 5, 8, 13, 63, 64, 65, 90} {
		for _, build := range []func(int) *Schedule{Dissemination, Tree} {
			checkRandomMutationsWithRollback(t, build(p))
		}
	}
}

func checkRandomMutationsWithRollback(t *testing.T, s *Schedule) {
	t.Helper()
	p := s.P
	steps := 600
	if p >= 63 {
		steps = 150
	}
	rng := stats.NewRNG(uint64(211 + p))
	c := NewFrontierKnowledgeCache(p)
	for step := 0; step < steps; step++ {
		switch rng.Intn(9) {
		case 0: // append an empty stage
			if s.NumStages() < 14 {
				s.AddStage(mat.NewBool(p))
				c.Invalidate(s.NumStages() - 1)
			}
		case 1: // truncate the last stage (models an undone append)
			if s.NumStages() > 1 {
				k := s.NumStages() - 1
				s.Stages = s.Stages[:k]
				c.Invalidate(k)
			}
		case 2: // toggle a random signal, coarse invalidation
			k := rng.Intn(s.NumStages())
			i, j := rng.Intn(p), rng.Intn(p)
			if i == j {
				continue
			}
			s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
			c.Invalidate(k)
		case 3: // toggle a random signal, row-level invalidation
			k := rng.Intn(s.NumStages())
			i, j := rng.Intn(p), rng.Intn(p)
			if i == j {
				continue
			}
			s.Stages[k].Set(i, j, !s.Stages[k].At(i, j))
			c.InvalidateRow(k, i)
		case 4: // evaluated rejection: note, evaluate, roll back, revert
			k := rng.Intn(s.NumStages())
			i, j := rng.Intn(p), rng.Intn(p)
			if i == j {
				continue
			}
			was := s.Stages[k].At(i, j)
			s.Stages[k].Set(i, j, !was)
			noteToggle(c, k, i, j, was)
			if got, want := c.Barrier(s), oracleBarrier(s); got != want {
				t.Fatalf("%s step %d: verdict inside rejection %v, from scratch %v", s.Name, step, got, want)
			}
			c.Rollback()
			s.Stages[k].Set(i, j, was)
			noteToggle(c, k, i, j, !was)
		default: // toggle a random signal, exact single-bit note
			k := rng.Intn(s.NumStages())
			i, j := rng.Intn(p), rng.Intn(p)
			if i == j {
				continue
			}
			was := s.Stages[k].At(i, j)
			s.Stages[k].Set(i, j, !was)
			noteToggle(c, k, i, j, was)
		}
		if got, want := c.Barrier(s), oracleBarrier(s); got != want {
			t.Fatalf("%s step %d: cached verdict %v, from scratch %v\n%s", s.Name, step, got, want, s)
		}
		if step%41 == 0 && s.NumStages() > 0 {
			k := rng.Intn(s.NumStages())
			got, want := c.After(s, k), s.Knowledge()[k]
			if !got.Equal(want) && !(got.AllSet() && want.AllSet()) {
				t.Fatalf("%s step %d: knowledge after stage %d diverges", s.Name, step, k)
			}
			if got, want := c.FirstFullStage(s), oracleFirstFullStage(s); got != want {
				t.Fatalf("%s step %d: FirstFullStage = %d, want %d", s.Name, step, got, want)
			}
		}
	}
}

func noteToggle(c *FrontierKnowledgeCache, k, i, j int, was bool) {
	if was {
		c.NoteClear(k, i, j)
	} else {
		c.NoteSet(k, i, j)
	}
}

// checkDeadWaveThenStaleSuffix pins a regression: when a change wave dies
// out inside the cached prefix while an appended stage is still awaiting its
// first recompute, Barrier must continue into the stale suffix instead of
// concluding from the prefix alone.
func checkDeadWaveThenStaleSuffix(t *testing.T, p int) {
	t.Helper()
	s := New("regress", p)
	st0 := mat.NewBool(p)
	st0.Set(0, 1, true)
	s.AddStage(st0)
	st1 := mat.NewBool(p)
	st1.Set(0, 1, true)
	s.AddStage(st1)
	c := NewFrontierKnowledgeCache(p)
	if c.Barrier(s) {
		t.Fatalf("two-signal schedule cannot synchronise %d ranks", p)
	}
	// Append an all-to-all stage (not yet seen by the cache), then remove the
	// duplicated signal: its knowledge effect is absorbed by stage 0, so the
	// change wave dies at stage 1 — before the appended stage.
	full := mat.NewBool(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				full.Set(i, j, true)
			}
		}
	}
	s.AddStage(full)
	c.Invalidate(2)
	s.Stages[1].Set(0, 1, false)
	c.NoteClear(1, 0, 1)
	if got, want := c.Barrier(s), oracleBarrier(s); got != want {
		t.Fatalf("P=%d: cached verdict %v, from scratch %v", p, got, want)
	}
}

func TestKnowledgeCacheDeadWaveThenStaleSuffix(t *testing.T) { checkDeadWaveThenStaleSuffix(t, 4) }

func TestFrontierCacheDeadWaveThenStaleSuffix(t *testing.T) { checkDeadWaveThenStaleSuffix(t, 65) }

// checkRollbackPreservesUnreplayedNotes drives the cache through the search
// engine's evaluated-rejection protocol: an earlier edit the schedule keeps
// is noted but never evaluated (a transposition-answered accept), then a
// candidate edit is noted, evaluated, and retired via Rollback plus an
// inverse note. The kept edit's note must survive the rollback, or the cache
// silently diverges from the schedule.
func checkRollbackPreservesUnreplayedNotes(t *testing.T, p int) {
	t.Helper()
	s := Dissemination(p)
	c := NewFrontierKnowledgeCache(p)
	if !c.Barrier(s) {
		t.Fatalf("dissemination(%d) must synchronise", p)
	}
	// Kept edit, not yet replayed: dissemination stage 1 carries (0 -> 2).
	s.Stages[1].Set(0, 2, false)
	c.NoteClear(1, 0, 2)
	// Candidate edit: stage 2 carries (1 -> 5). Evaluate, then reject it the
	// way the engine does — Rollback first, inverse note after.
	s.Stages[2].Set(1, 5, false)
	c.NoteClear(2, 1, 5)
	c.Barrier(s)
	c.Rollback()
	s.Stages[2].Set(1, 5, true)
	c.NoteSet(2, 1, 5)
	if got, want := c.Barrier(s), oracleBarrier(s); got != want {
		t.Fatalf("P=%d: cached verdict %v, from scratch %v", p, got, want)
	}
	checkKnowledgeAfter(t, c, s)
}

func TestKnowledgeCacheRollbackPreservesUnreplayedNotes(t *testing.T) {
	checkRollbackPreservesUnreplayedNotes(t, 8)
}

func TestFrontierCacheRollbackPreservesUnreplayedNotes(t *testing.T) {
	checkRollbackPreservesUnreplayedNotes(t, 65)
}

func checkRejectsWrongRankCount(t *testing.T, p int) {
	t.Helper()
	c := NewFrontierKnowledgeCache(p)
	defer func() {
		if recover() == nil {
			t.Fatalf("rank-count mismatch accepted")
		}
	}()
	c.Barrier(Tree(p + 1))
}

func TestKnowledgeCacheRejectsWrongRankCount(t *testing.T) { checkRejectsWrongRankCount(t, 4) }

func TestFrontierCacheRejectsWrongRankCount(t *testing.T) { checkRejectsWrongRankCount(t, 64) }

// TestKnowledgeCacheJournalCompaction pins the commit-time journal cap: a
// journal left at a pathological high-water capacity must be reallocated
// small at the next Barrier's journal open, and the refs must drop the row
// pointers they held so rejected candidates' rows become collectable — the
// memory bound a multi-hour anneal depends on.
func TestKnowledgeCacheJournalCompaction(t *testing.T) {
	p := 64
	s := Dissemination(p)
	toggle := func(c *FrontierKnowledgeCache) {
		was := s.Stages[0].At(0, 1)
		s.Stages[0].Set(0, 1, !was)
		noteToggle(c, 0, 0, 1, was)
		c.Barrier(s)
	}

	c := NewFrontierKnowledgeCache(p)
	c.Barrier(s)
	// Simulate a pathological mutation's high-water capacity, then hit a
	// commit point (the next Barrier's journal open).
	c.jRefs = make([]journalRef, 0, journalRetainRefs*2)
	toggle(c)
	if got := cap(c.jRefs); got > journalRetainRefs {
		t.Fatalf("journal refs retained %d, cap %d", got, journalRetainRefs)
	}
	// A change journals row pointers; the following no-change Barrier is a
	// commit point that must release them.
	toggle(c)
	c.Barrier(s)
	if len(c.jRefs) != 0 {
		t.Fatalf("no-change Barrier left %d journal refs", len(c.jRefs))
	}
	for _, ref := range c.jRefs[:cap(c.jRefs)] {
		if ref.old != nil {
			t.Fatalf("journal retains row pointers after commit")
		}
	}
}

// BenchmarkWavePaths prices the two ways a wave can cross one stage of a
// cached dissemination schedule: the whole-stage pass and the receiver-wise
// pass over 1, 4 and 16 candidate receivers. stageCheaper's weights are
// fitted to these numbers; rerun it when either path changes.
func BenchmarkWavePaths(b *testing.B) {
	for _, p := range []int{8, 16, 32, 64, 128, 256, 1024} {
		s := Dissemination(p)
		c := NewFrontierKnowledgeCache(p)
		c.Barrier(s)
		const k = 1
		st := s.Stages[k]
		b.Run(fmt.Sprintf("P%d/stage", p), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				c.recomputeStage(k, st, true)
			}
		})
		for _, cand := range []int{1, 4, 16} {
			if cand > p {
				continue
			}
			clearWords(c.cand)
			for x := 0; x < cand; x++ {
				j := x * p / cand
				c.cand[j>>6] |= 1 << uint(j&63)
			}
			b.Run(fmt.Sprintf("P%d/receivers%d", p, cand), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					c.recomputeReceivers(k, st)
				}
			})
		}
	}
}
