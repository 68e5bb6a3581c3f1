package critpath

import (
	"math"
	"testing"
	"time"

	"topobarrier/internal/mat"
	"topobarrier/internal/predict"
	"topobarrier/internal/profile"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

const us = time.Microsecond

// Synthetic span builders mirroring what netmpi emits: a send span belongs
// to the sender (Rank=src, Peer=dst), a recv span to the receiver (Rank=dst,
// Peer=src), stage spans to the rank executing the stage.
func sendEv(src, dst, stage, tag int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.send:tcp", Rank: src, Stage: stage, Peer: dst, Tag: tag, Start: start, Dur: dur}
}

func recvEv(src, dst, stage, tag int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.recv:tcp", Rank: dst, Stage: stage, Peer: src, Tag: tag, Start: start, Dur: dur}
}

func stageEv(rank, stage int, start, dur time.Duration) telemetry.SpanEvent {
	return telemetry.SpanEvent{Name: "barrier.stage:test", Rank: rank, Stage: stage, Peer: -1, Tag: -1, Start: start, Dur: dur}
}

// exchange appends a full matched message: send span plus the recv span
// whose End is the arrival.
func exchange(evs []telemetry.SpanEvent, src, dst, stage, tag int, sendStart, sendDur, recvStart, recvEnd time.Duration) []telemetry.SpanEvent {
	return append(evs,
		sendEv(src, dst, stage, tag, sendStart, sendDur),
		recvEv(src, dst, stage, tag, recvStart, recvEnd-recvStart))
}

// TestMergeFIFOMatching pins the core pairing rule: the k-th send on a
// (src,dst,tag) key matches the k-th recv on it, repeats of one tag window
// get distinct Seq, and leftovers on either side are counted unmatched.
func TestMergeFIFOMatching(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Two barriers reusing tag 5 on link 0→1 (same key, seq 0 and 1).
	evs = exchange(evs, 0, 1, 0, 5, 10*us, us, 9*us, 13*us)
	evs = exchange(evs, 0, 1, 0, 5, 50*us, us, 49*us, 53*us)
	// A send with no recv, and a recv with no send, on other keys.
	evs = append(evs, sendEv(0, 2, 0, 5, 20*us, us))
	evs = append(evs, recvEv(2, 1, 0, 7, 30*us, 2*us))
	tl, err := Merge(evs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.All) != 2 {
		t.Fatalf("matched %d messages, want 2: %+v", len(tl.All), tl.All)
	}
	if tl.Unmatched != 2 {
		t.Errorf("unmatched %d, want 2", tl.Unmatched)
	}
	for i, m := range tl.All {
		if m.Src != 0 || m.Dst != 1 || m.Tag != 5 || m.Seq != i {
			t.Errorf("message %d = %+v, want 0→1 tag 5 seq %d", i, m, i)
		}
	}
	if got := tl.All[0].Arrived; math.Abs(got-13e-6) > 1e-9 {
		t.Errorf("first arrival %g, want 13µs", got)
	}
	if got := tl.All[1].Wait; math.Abs(got-4e-6) > 1e-9 {
		t.Errorf("second wait %g, want 4µs", got)
	}
	// Auto-selection picks the instance with the latest arrival: seq 1.
	if tl.Seq != 1 || len(tl.Messages) != 1 {
		t.Errorf("selected seq %d with %d messages, want seq 1 with 1", tl.Seq, len(tl.Messages))
	}
}

// TestMergeClockOffsetRecovery shifts one rank's clock by a known delta and
// checks the NTP-style estimate recovers it from a symmetric bidirectional
// exchange — and that corrected arrivals then reflect the true latency.
func TestMergeClockOffsetRecovery(t *testing.T) {
	const (
		delta = 40 * us // rank 1's clock runs 40µs ahead
		lat   = 10 * us // true symmetric one-way latency
		o     = 2 * us  // send overhead
	)
	var evs []telemetry.SpanEvent
	// 0→1: sent on rank 0's clock, received on rank 1's (shifted) clock.
	evs = exchange(evs, 0, 1, 0, 3, 100*us, o, 100*us+delta, 100*us+o+lat+delta)
	// 1→0: sent on rank 1's (shifted) clock, received on rank 0's clock.
	evs = exchange(evs, 1, 0, 0, 4, 100*us+delta, o, 100*us, 100*us+o+lat)
	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Estimated[0] || !tl.Estimated[1] {
		t.Fatalf("offsets not estimated: %v", tl.Estimated)
	}
	if got := tl.Offsets[1]; math.Abs(got-delta.Seconds()) > 1e-9 {
		t.Fatalf("offset[1] = %gµs, want %gµs", got*1e6, delta.Seconds()*1e6)
	}
	// After correction both directions must show the true one-way latency.
	for _, m := range tl.All {
		if flight := m.Arrived - m.Sent; math.Abs(flight-lat.Seconds()) > 1e-9 {
			t.Errorf("%d→%d corrected flight %gµs, want %gµs", m.Src, m.Dst, flight*1e6, lat.Seconds()*1e6)
		}
	}
}

// TestMergeOffsetsUnreachedRanksFlagged pins the disconnected case: a rank
// with only one-directional traffic keeps offset 0 and Estimated false.
func TestMergeOffsetsUnreachedRanksFlagged(t *testing.T) {
	var evs []telemetry.SpanEvent
	evs = exchange(evs, 0, 1, 0, 3, 10*us, us, 10*us, 14*us) // one way only
	tl, err := Merge(evs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Estimated[1] || tl.Estimated[2] {
		t.Errorf("one-directional or silent ranks flagged as estimated: %v", tl.Estimated)
	}
	if tl.Offsets[1] != 0 || tl.Offsets[2] != 0 {
		t.Errorf("unreached ranks must keep offset 0: %v", tl.Offsets)
	}
}

// TestMergeInstanceSelection pins the barrier-instance disambiguation: two
// barriers with different tag bases in one window, auto-select takes the
// later, pinning takes the named one, pinning a missing base errors.
func TestMergeInstanceSelection(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Alignment barrier, tag base 0: stage 0 uses tag 0, stage 1 tag 1.
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 10*us, 13*us)
	evs = exchange(evs, 1, 0, 1, 1, 14*us, us, 14*us, 17*us)
	// Traced barrier, tag base 1024.
	evs = exchange(evs, 0, 1, 0, 1024, 30*us, us, 30*us, 33*us)
	evs = exchange(evs, 1, 0, 1, 1025, 34*us, us, 34*us, 37*us)

	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TagBase != 1024 || len(tl.Messages) != 2 {
		t.Errorf("auto-select got base %d with %d messages, want 1024 with 2", tl.TagBase, len(tl.Messages))
	}
	if len(tl.All) != 4 {
		t.Errorf("All must keep every matched message: %d", len(tl.All))
	}

	tl, err = Merge(evs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.TagBase != 0 || len(tl.Messages) != 2 {
		t.Errorf("pinned select got base %d with %d messages, want 0 with 2", tl.TagBase, len(tl.Messages))
	}

	if _, err := Merge(evs, 2, 512); err == nil {
		t.Error("pinning an absent tag base must error")
	}
}

// TestMergeValidation pins the input contract.
func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil, 0, -1); err == nil {
		t.Error("non-positive P accepted")
	}
	bad := []telemetry.SpanEvent{sendEv(0, 9, 0, 0, 0, us)}
	if _, err := Merge(bad, 2, -1); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

// TestCriticalPathSynthetic builds a 4-rank, 2-stage barrier where one slow
// link visibly determines completion and checks the backward walk finds
// exactly that chain, earliest stage first.
func TestCriticalPathSynthetic(t *testing.T) {
	var evs []telemetry.SpanEvent
	// Stage 0: 0→1 is slow (arrives 50µs), 2→3 is fast.
	evs = exchange(evs, 0, 1, 0, 100, 10*us, us, 9*us, 50*us)
	evs = exchange(evs, 2, 3, 0, 100, 10*us, us, 9*us, 14*us)
	// Stage 1: 1→2's send is gated on 1's late stage-0 completion.
	evs = exchange(evs, 1, 2, 1, 101, 51*us, us, 15*us, 56*us)
	evs = exchange(evs, 3, 0, 1, 101, 15*us, us, 12*us, 18*us)
	// Stage spans bracketing the work.
	evs = append(evs,
		stageEv(0, 0, 9*us, 2*us), stageEv(1, 0, 9*us, 41*us),
		stageEv(2, 0, 9*us, 5*us), stageEv(3, 0, 9*us, 5*us),
		stageEv(0, 1, 11*us, 7*us), stageEv(1, 1, 50*us, 2*us),
		stageEv(2, 1, 14*us, 42*us), stageEv(3, 1, 14*us, 2*us),
	)
	tl, err := Merge(evs, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	hops := tl.CriticalPath()
	if len(hops) != 2 {
		t.Fatalf("path %v, want 2 hops", hops)
	}
	// Completion is rank 2's stage-1 end (56µs); its determining arrival is
	// 1→2, and rank 1's stage-0 completion was determined by 0→1.
	if hops[1].From != 1 || hops[1].To != 2 || hops[1].Stage != 1 {
		t.Errorf("final hop %+v, want 1→2 at stage 1", hops[1])
	}
	if hops[0].From != 0 || hops[0].To != 1 || hops[0].Stage != 0 {
		t.Errorf("first hop %+v, want 0→1 at stage 0", hops[0])
	}
	if start, end := tl.Span(); math.Abs((end-start)-47e-6) > 1e-9 {
		t.Errorf("span [%g, %g], want 9µs→56µs", start*1e6, end*1e6)
	}
}

// TestCriticalPathLocalHop pins the local-work case: when a rank's stage
// began after every arrival, its own drain is the determining step.
func TestCriticalPathLocalHop(t *testing.T) {
	var evs []telemetry.SpanEvent
	// 0→1 arrives at 12µs but rank 1 only entered the stage at 20µs and
	// finished at 30µs: the arrival did not gate it, its own lateness did.
	evs = exchange(evs, 0, 1, 0, 10, 10*us, us, 20*us, 12*us+9*us) // arrival 21µs < stage start+eps? no: 21µs > 20µs
	evs = append(evs, stageEv(1, 0, 22*us, 8*us), stageEv(0, 0, 9*us, 2*us))
	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	hops := tl.CriticalPath()
	if len(hops) != 1 {
		t.Fatalf("path %v, want 1 hop", hops)
	}
	if hops[0].From != 1 || hops[0].To != 1 {
		t.Errorf("hop %+v, want a local hop on rank 1 (arrival predates its stage entry)", hops[0])
	}
}

// TestCriticalPathWithoutStageSpans pins the walk on a window with message
// spans only, as a simulated run produces: an arrival that predates the
// rank's first send of the stage did not gate it, so the walk stays on the
// rank and follows the earlier stage's arrival instead.
func TestCriticalPathWithoutStageSpans(t *testing.T) {
	var evs []telemetry.SpanEvent
	evs = exchange(evs, 0, 1, 0, 0, 0, 0, 0, 5*us) // gates rank 1's stage 1
	evs = exchange(evs, 2, 1, 1, 1, 0, 0, 0, us)   // lands before rank 1 enters stage 1
	evs = exchange(evs, 1, 2, 1, 1, 5*us, 0, 5*us, 6*us)
	evs = exchange(evs, 1, 3, 2, 2, 6*us, 0, 6*us, 7*us)
	tl, err := Merge(evs, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	hops := tl.CriticalPath()
	want := []Hop{
		{Stage: 0, From: 0, To: 1, Sent: 0, Arrived: 5e-6},
		{Stage: 1, From: 1, To: 1, Sent: 5e-6, Arrived: 6e-6},
		{Stage: 2, From: 1, To: 3, Sent: 6e-6, Arrived: 7e-6},
	}
	if len(hops) != len(want) {
		t.Fatalf("path %v, want %v", hops, want)
	}
	for i, h := range hops {
		w := want[i]
		if h.Stage != w.Stage || h.From != w.From || h.To != w.To ||
			math.Abs(h.Sent-w.Sent) > 1e-12 || math.Abs(h.Arrived-w.Arrived) > 1e-12 {
			t.Errorf("hop %d = %v, want %v", i, h, w)
		}
	}
}

// uniformProfile builds a profile with O=o and L=l on every off-diagonal
// direction.
func uniformProfile(p int, o, l float64) *profile.Profile {
	pf := profile.New("test", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			pf.O.Set(i, j, o)
			pf.L.Set(i, j, l)
		}
	}
	return pf
}

// TestLinkBlameScoring pins the one-sided blame math: floors above the
// profiled O+L score positive, floors at or below it score zero, and the
// table sorts worst first.
func TestLinkBlameScoring(t *testing.T) {
	pf := uniformProfile(3, 2e-6, 8e-6) // expected O+L = 10µs
	var evs []telemetry.SpanEvent
	// 0→1: two observations, floor 30µs → score (30−10)/10 = 2.
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 9*us, 45*us)
	evs = exchange(evs, 0, 1, 0, 1, 50*us, us, 49*us, 80*us)
	// 1→2: floor 5µs, faster than the model → score 0, not negative.
	evs = exchange(evs, 1, 2, 0, 0, 10*us, us, 9*us, 15*us)
	tl, err := Merge(evs, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	bl := tl.LinkBlame(pf)
	if len(bl) != 2 {
		t.Fatalf("blame table %+v, want 2 rows", bl)
	}
	if bl[0].From != 0 || bl[0].To != 1 || math.Abs(bl[0].Score-2) > 1e-6 {
		t.Errorf("worst row %+v, want 0→1 score 2", bl[0])
	}
	if bl[0].Count != 2 {
		t.Errorf("0→1 count %d, want 2", bl[0].Count)
	}
	if bl[1].Score != 0 {
		t.Errorf("fast link scored %g, want 0 (one-sided)", bl[1].Score)
	}
	links := tl.Implicated(pf, 0.5)
	if len(links) != 1 || links[0] != (Link{0, 1}) {
		t.Errorf("implicated %v, want exactly 0→1", links)
	}
	if got := tl.Implicated(pf, 10); len(got) != 0 {
		t.Errorf("tolerance 10 still implicated %v", got)
	}
}

// schedPair is a one-stage 2-rank exchange barrier.
func schedPair() *sched.Schedule {
	s := sched.New("pair", 2)
	m := mat.NewBool(2)
	m.Set(0, 1, true)
	m.Set(1, 0, true)
	s.AddStage(m)
	return s
}

// TestAnalyzeMarksPathMembership checks the report wiring: blame rows on the
// realized and predicted chains are marked as such.
func TestAnalyzeMarksPathMembership(t *testing.T) {
	pf := uniformProfile(2, 2e-6, 8e-6)
	var evs []telemetry.SpanEvent
	evs = exchange(evs, 0, 1, 0, 0, 10*us, us, 9*us, 45*us)
	evs = append(evs, stageEv(0, 0, 9*us, 2*us), stageEv(1, 0, 9*us, 37*us))
	tl, err := Merge(evs, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	pd := predict.New(pf)
	s := schedPair()
	rep := Analyze(tl, pd, s)
	if len(rep.Realized) == 0 || rep.RealizedCost <= 0 {
		t.Fatalf("empty realized path in %+v", rep)
	}
	if len(rep.Predicted) != s.NumStages() || rep.PredictedCost <= 0 {
		t.Fatalf("predicted chain %+v", rep.Predicted)
	}
	var marked bool
	for _, b := range rep.Blame {
		if b.From == 0 && b.To == 1 && b.OnRealized {
			marked = true
		}
	}
	if !marked {
		t.Errorf("0→1 is the realized path but unmarked: %+v", rep.Blame)
	}
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
}
