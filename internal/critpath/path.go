package critpath

import (
	"fmt"
	"math"
	"strings"

	"topobarrier/internal/predict"
	"topobarrier/internal/sched"
)

// Hop is one step of the realized critical path. From != To is a link hop:
// either the arrival of From's stage-Stage signal is what let To finish the
// stage, or (Blocked) From's own eager send to To blocked long enough to
// gate From's progress — writes complete synchronously, so a delayed or
// backpressured link stalls its sender, and the cause is still the link.
// From == To is a local hop: To's own work (send-batch drain, or a stage
// with no binding arrival) dominated.
type Hop struct {
	Stage     int
	From, To  int
	Transport string // link hops only
	// Sent/Arrived bound the determining interval (seconds, corrected):
	// for an arrival hop the send-span start and the delivery; for a blocked
	// send the write's start and return; for a local hop the stage interval.
	Sent, Arrived float64
	// Wait is how long To's receive blocked on the hop (arrival hops only).
	Wait float64
	// Blocked marks a send-side hop: the walk stays on From, whose write to
	// To was the stage's dominant stall.
	Blocked bool
}

func (h Hop) String() string {
	if h.From == h.To {
		return fmt.Sprintf("stage %d: rank %d local %.1fµs",
			h.Stage, h.To, (h.Arrived-h.Sent)*1e6)
	}
	if h.Blocked {
		return fmt.Sprintf("stage %d: %d→%d %s send blocked %.1fµs→%.1fµs (%.1fµs)",
			h.Stage, h.From, h.To, h.Transport, h.Sent*1e6, h.Arrived*1e6, (h.Arrived-h.Sent)*1e6)
	}
	return fmt.Sprintf("stage %d: %d→%d %s sent %.1fµs arrived %.1fµs (wait %.1fµs)",
		h.Stage, h.From, h.To, h.Transport, h.Sent*1e6, h.Arrived*1e6, h.Wait*1e6)
}

// CriticalPath walks the selected barrier instance backwards from its
// latest stage completion: at each stage it asks what determined the
// current rank's completion — the latest message arrival if one landed
// after the rank entered the stage (hop to the sender), its own work
// otherwise (stay local) — yielding the realized analogue of
// predict.CriticalPath, earliest stage first. Nil when the window holds no
// matched messages.
func (tl *Timeline) CriticalPath() []Hop {
	if len(tl.Messages) == 0 {
		return nil
	}
	// The completing rank: the one whose last stage ends latest. Stage
	// spans are authoritative when present; message arrivals fill in for
	// ranks whose stage spans fell outside the window.
	maxStage := 0
	for _, m := range tl.Messages {
		if m.Stage > maxStage {
			maxStage = m.Stage
		}
	}
	rank, end := -1, math.Inf(-1)
	for r := 0; r < tl.P; r++ {
		for k := maxStage; k >= 0; k-- {
			if _, e, ok := tl.stageInterval(r, k); ok {
				if e > end {
					rank, end = r, e
				}
				break
			}
		}
	}
	if rank < 0 {
		for _, m := range tl.Messages {
			if m.Arrived > end {
				rank, end = m.Dst, m.Arrived
			}
		}
	}
	if rank < 0 {
		return nil
	}

	var rev []Hop
	r := rank
	at := end // when the chain leaves r: the start of the hop after stage k
	for k := maxStage; k >= 0; k-- {
		var best, bestSend *Message
		for i := range tl.Messages {
			m := &tl.Messages[i]
			if m.Dst == r && m.Stage == k && (best == nil || m.Arrived > best.Arrived) {
				best = m
			}
			if m.Src == r && m.Stage == k &&
				(bestSend == nil || m.Sent-m.SendStart > bestSend.Sent-bestSend.SendStart) {
				bestSend = m
			}
		}
		stStart, stEnd, stOK := tl.stageInterval(r, k)
		slack, entered := 1e-7, stOK
		if !stOK {
			// No stage span: a simulated run records none, nor does an idle
			// stage on a mesh. Bound the entry instead, exactly (no slack):
			// the local hop then lasts until the chain leaves the rank.
			stStart, entered = tl.entryBound(r, k)
			stEnd, slack = at, 0
			if !entered {
				stStart = at
			}
		}
		// An eager send that blocked far longer than the rank then waited in
		// its receive is the stage's real stall: sends complete synchronously,
		// so outbound backpressure (or an injected link delay) shows up as a
		// long write, after which the inbound message is usually already
		// waiting and its negligible Wait would misdirect the walk to a
		// healthy link. The 50µs floor keeps ordinary syscall-scale writes
		// from ever outranking a genuine arrival.
		const minBlock = 50e-6
		if bestSend != nil {
			block := bestSend.Sent - bestSend.SendStart
			wait := 0.0
			if best != nil {
				wait = best.Wait
			}
			if block > minBlock && block > 2*wait {
				rev = append(rev, Hop{
					Stage: k, From: r, To: bestSend.Dst, Transport: bestSend.Transport,
					Sent: bestSend.SendStart, Arrived: bestSend.Sent, Blocked: true,
				})
				at = bestSend.SendStart
				continue
			}
		}
		if best != nil && (!entered || best.Arrived > stStart+slack) {
			rev = append(rev, Hop{
				Stage: k, From: best.Src, To: r, Transport: best.Transport,
				Sent: best.SendStart, Arrived: best.Arrived, Wait: best.Wait,
			})
			r = best.Src
			at = best.SendStart
			continue
		}
		rev = append(rev, Hop{Stage: k, From: r, To: r, Sent: stStart, Arrived: stEnd})
		at = stStart
	}
	out := make([]Hop, len(rev))
	for i, h := range rev {
		out[len(rev)-1-i] = h
	}
	return out
}

// entryBound bounds from below when rank entered stage k, for a rank without
// a stage span: a rank issues a stage's sends on entering it, and enters only
// after its arrivals of earlier stages. False when it has neither.
func (tl *Timeline) entryBound(rank, k int) (float64, bool) {
	first, last := math.Inf(1), math.Inf(-1)
	for _, m := range tl.Messages {
		if m.Src == rank && m.Stage == k && m.SendStart < first {
			first = m.SendStart
		}
		if m.Dst == rank && m.Stage < k && m.Arrived > last {
			last = m.Arrived
		}
	}
	if !math.IsInf(first, 1) {
		return first, true
	}
	return last, !math.IsInf(last, -1)
}

// Span returns the realized makespan of the selected barrier instance: from
// the earliest stage entry (falling back to the earliest send) to the
// latest stage completion (falling back to the latest arrival).
func (tl *Timeline) Span() (start, end float64) {
	start, end = math.Inf(1), math.Inf(-1)
	for r := 0; r < tl.P; r++ {
		if s, _, ok := tl.stageInterval(r, 0); ok && s < start {
			start = s
		}
		for k := range tl.stages {
			if k[0] != r {
				continue
			}
			if _, e, ok := tl.stageInterval(r, k[1]); ok && e > end {
				end = e
			}
		}
	}
	for _, m := range tl.Messages {
		if m.SendStart < start {
			start = m.SendStart
		}
		if m.Arrived > end {
			end = m.Arrived
		}
	}
	return start, end
}

// Report is the realized-vs-predicted critical-path comparison of one
// barrier instance plus the window's per-link blame table.
type Report struct {
	P       int
	TagBase int
	// Realized is the observed chain; RealizedCost its makespan (seconds).
	Realized     []Hop
	RealizedCost float64
	// Predicted is the model's chain under the same schedule and profile;
	// PredictedCost is predict.Cost. Empty when Analyze ran without a
	// predictor.
	Predicted     []predict.PathStep
	PredictedCost float64
	// Blame is the per-direction comparison of observed delivery floors
	// against the profiled O+L, sorted worst first, with realized- and
	// predicted-path membership marked.
	Blame []Blame
}

// Analyze extracts the realized critical path of tl's selected barrier and,
// when a predictor and schedule are supplied, diffs it against the
// predicted chain and scores every observed link against the profile. pd
// and s may be nil (realized path only; blame needs pd's profile).
func Analyze(tl *Timeline, pd *predict.Predictor, s *sched.Schedule) *Report {
	rep := &Report{P: tl.P, TagBase: tl.TagBase, Realized: tl.CriticalPath()}
	if start, end := tl.Span(); end > start {
		rep.RealizedCost = end - start
	}
	if pd != nil && s != nil {
		rep.Predicted = pd.CriticalPath(s)
		rep.PredictedCost = pd.Cost(s)
	}
	if pd != nil && pd.Prof != nil {
		rep.Blame = tl.LinkBlame(pd.Prof)
		onReal := map[Link]bool{}
		for _, h := range rep.Realized {
			if h.From != h.To {
				onReal[Link{h.From, h.To}] = true
			}
		}
		onPred := map[Link]bool{}
		for _, st := range rep.Predicted {
			if st.From != st.To {
				onPred[Link{st.From, st.To}] = true
			}
		}
		for i := range rep.Blame {
			l := Link{rep.Blame[i].From, rep.Blame[i].To}
			rep.Blame[i].OnRealized = onReal[l]
			rep.Blame[i].OnPredicted = onPred[l]
		}
	}
	return rep
}

// String renders the report the way the CLIs print it.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "realized critical path (tag base %d, makespan %.1fµs):\n", rep.TagBase, rep.RealizedCost*1e6)
	if len(rep.Realized) == 0 {
		b.WriteString("  (no matched messages in window)\n")
	}
	for _, h := range rep.Realized {
		fmt.Fprintf(&b, "  %s\n", h)
	}
	if len(rep.Predicted) > 0 {
		fmt.Fprintf(&b, "predicted critical path (cost %.1fµs):\n", rep.PredictedCost*1e6)
		for _, st := range rep.Predicted {
			if st.From == st.To {
				fmt.Fprintf(&b, "  stage %d: rank %d local, done %.1fµs\n", st.Stage, st.To, st.At*1e6)
			} else {
				fmt.Fprintf(&b, "  stage %d: %d→%d, done %.1fµs\n", st.Stage, st.From, st.To, st.At*1e6)
			}
		}
	}
	if len(rep.Blame) > 0 {
		b.WriteString("per-link blame (observed delivery floor vs profile O+L):\n")
		for i, bl := range rep.Blame {
			if i >= 8 && bl.Score == 0 {
				fmt.Fprintf(&b, "  ... %d more within tolerance\n", len(rep.Blame)-i)
				break
			}
			marks := ""
			if bl.OnRealized {
				marks += " [realized]"
			}
			if bl.OnPredicted {
				marks += " [predicted]"
			}
			fmt.Fprintf(&b, "  %d→%d: observed %.1fµs expected %.1fµs score %.2f (n=%d)%s\n",
				bl.From, bl.To, bl.Observed*1e6, bl.Expected*1e6, bl.Score, bl.Count, marks)
		}
	}
	return b.String()
}
