// Package run executes barrier schedules on the simulated MPI runtime and
// measures them.
//
// It provides the paper's "general simulator for matrix encodings of
// barriers" (§VI): each rank loops over the stages of a schedule, posts
// nonblocking receives for the signals addressed to it, issues nonblocking
// synchronized sends for the signals it owes, and waits for all requests
// before entering the next stage. It also provides the flattened Plan — the
// in-process equivalent of the paper's generated code (§VII.C), with
// matrices pre-resolved to per-rank lists and no-op stages eliminated — plus
// the timing harness and the delay-injection synchronization validator.
package run

import (
	"fmt"

	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
	"topobarrier/internal/stats"
)

// Func is a barrier implementation executable by one rank. Implementations
// must use tags in [tagBase, tagBase+TagSpan) so that consecutive barriers
// never cross-match.
type Func func(c *mpi.Comm, tagBase int)

// TagSpan is the tag budget one barrier invocation may use.
const TagSpan = 1024

// Barrier executes schedule s for the calling rank using the general
// stage-matrix interpreter. All ranks of the world must call it with the
// same schedule and tagBase.
func Barrier(c *mpi.Comm, s *sched.Schedule, tagBase int) {
	me := c.Rank()
	for k, st := range s.Stages {
		tag := tagBase + k
		sources := st.Col(me)
		targets := st.Row(me)
		if len(sources) == 0 && len(targets) == 0 {
			continue
		}
		reqs := make([]*mpi.Request, 0, len(sources)+len(targets))
		for _, src := range sources {
			reqs = append(reqs, c.Irecv(src, tag))
		}
		for _, dst := range targets {
			reqs = append(reqs, c.Issend(dst, tag, 0))
		}
		c.Wait(reqs...)
	}
}

// ScheduleFunc adapts a schedule to a Func using the general interpreter.
func ScheduleFunc(s *sched.Schedule) Func {
	return func(c *mpi.Comm, tagBase int) { Barrier(c, s, tagBase) }
}

// Plan is a schedule compiled to per-rank stage lists: the executable
// equivalent of the paper's generated hard-coded barriers. Empty stages are
// eliminated and per-stage membership is pre-resolved, so executing a plan
// performs no matrix scans.
type Plan struct {
	Name   string
	P      int
	Stages int
	// ops[rank] lists only the stages in which the rank participates.
	ops [][]rankStage
}

type rankStage struct {
	stage int // stage index after empty-stage elimination (tag offset)
	recvs []int
	sends []int
}

// NewPlan compiles a schedule. It returns an error if the schedule does not
// globally synchronise — compiling a non-barrier is always a bug.
func NewPlan(s *sched.Schedule) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsBarrier() {
		return nil, fmt.Errorf("run: schedule %q does not globally synchronise", s.Name)
	}
	return compile(s, nil)
}

// compile flattens the schedule's non-empty stages into per-rank stage
// lists. A non-nil inGroup restricts every signal to group members.
func compile(s *sched.Schedule, inGroup []bool) (*Plan, error) {
	clean := s.DropEmptyStages()
	pl := &Plan{Name: s.Name, P: s.P, Stages: clean.NumStages(), ops: make([][]rankStage, s.P)}
	for k, st := range clean.Stages {
		for r := 0; r < s.P; r++ {
			recvs := st.Col(r)
			sends := st.Row(r)
			if len(recvs) == 0 && len(sends) == 0 {
				continue
			}
			if inGroup != nil {
				if !inGroup[r] {
					return nil, fmt.Errorf("run: schedule %q involves non-member rank %d", s.Name, r)
				}
				for _, peer := range append(append([]int(nil), recvs...), sends...) {
					if !inGroup[peer] {
						return nil, fmt.Errorf("run: schedule %q signals non-member rank %d", s.Name, peer)
					}
				}
			}
			pl.ops[r] = append(pl.ops[r], rankStage{stage: k, recvs: recvs, sends: sends})
		}
	}
	return pl, nil
}

// Execute runs the plan for the calling rank.
func (pl *Plan) Execute(c *mpi.Comm, tagBase int) {
	for _, st := range pl.ops[c.Rank()] {
		tag := tagBase + st.stage
		reqs := make([]*mpi.Request, 0, len(st.recvs)+len(st.sends))
		for _, src := range st.recvs {
			reqs = append(reqs, c.Irecv(src, tag))
		}
		for _, dst := range st.sends {
			reqs = append(reqs, c.Issend(dst, tag, 0))
		}
		c.Wait(reqs...)
	}
}

// Func adapts the plan to the Func interface.
func (pl *Plan) Func() Func {
	return func(c *mpi.Comm, tagBase int) { pl.Execute(c, tagBase) }
}

// Measurement summarises a timed barrier run.
type Measurement struct {
	Mean   float64 // mean virtual seconds per barrier
	Iters  int
	Warmup int
}

// Measure times a barrier: every rank executes warmup untimed iterations,
// then iters timed iterations; the reported mean is the globally elapsed
// virtual time between the end of the warmup and the end of the run, divided
// by iters — the way wall-clock barrier benchmarks measure on hardware.
func Measure(w *mpi.World, b Func, warmup, iters int) (Measurement, error) {
	if iters <= 0 {
		return Measurement{}, fmt.Errorf("run: non-positive iteration count %d", iters)
	}
	if warmup < 0 {
		return Measurement{}, fmt.Errorf("run: negative warmup %d", warmup)
	}
	p := w.Size()
	t0 := make([]float64, p)
	t1 := make([]float64, p)
	_, err := w.Run(func(c *mpi.Comm) {
		// Only adjacent barrier invocations can overlap in flight, so two
		// alternating tag windows keep matching unambiguous.
		n := 0
		next := func() int { n++; return (n % 2) * TagSpan }
		for i := 0; i < warmup; i++ {
			b(c, next())
		}
		t0[c.Rank()] = c.Wtime()
		for i := 0; i < iters; i++ {
			b(c, next())
		}
		t1[c.Rank()] = c.Wtime()
	})
	if err != nil {
		return Measurement{}, err
	}
	mean := (stats.Max(t1) - stats.Max(t0)) / float64(iters)
	return Measurement{Mean: mean, Iters: iters, Warmup: warmup}, nil
}

// Validate performs the paper's synchronization check (§VI): the barrier is
// run once per delayed rank d, with rank d entering `delay` virtual seconds
// late; every rank's exit time must then be at least the delayed rank's
// entry time, or the pattern failed to synchronise. delayRanks selects which
// ranks to delay (nil means all P, the paper's protocol).
func Validate(w *mpi.World, b Func, delay float64, delayRanks []int) error {
	if delay <= 0 {
		return fmt.Errorf("run: non-positive delay %g", delay)
	}
	if delayRanks == nil {
		delayRanks = make([]int, w.Size())
		for i := range delayRanks {
			delayRanks[i] = i
		}
	}
	for _, d := range delayRanks {
		if d < 0 || d >= w.Size() {
			return fmt.Errorf("run: delay rank %d out of range", d)
		}
		enter := make([]float64, w.Size())
		exit := make([]float64, w.Size())
		_, err := w.Run(func(c *mpi.Comm) {
			if c.Rank() == d {
				c.Compute(delay)
			}
			enter[c.Rank()] = c.Wtime()
			b(c, 0)
			exit[c.Rank()] = c.Wtime()
		})
		if err != nil {
			return fmt.Errorf("run: validation with rank %d delayed: %w", d, err)
		}
		for r, x := range exit {
			if x < enter[d] {
				return fmt.Errorf("run: rank %d exited at %g before delayed rank %d entered at %g",
					r, x, d, enter[d])
			}
		}
	}
	return nil
}

// MeasureCold times single-shot executions: each of reps samples runs the
// barrier exactly once in a fresh virtual-time run, so no state (posted
// receives, pipelining) carries over between samples. Steady-state Measure
// rewards deep trees whose receivers pre-post across iterations; one-shot
// operations — a broadcast at program start, a rarely-executed barrier — see
// the cold cost instead.
func MeasureCold(w *mpi.World, b Func, reps int) (Measurement, error) {
	if reps <= 0 {
		return Measurement{}, fmt.Errorf("run: non-positive rep count %d", reps)
	}
	total := 0.0
	for i := 0; i < reps; i++ {
		elapsed, err := w.Run(func(c *mpi.Comm) { b(c, 0) })
		if err != nil {
			return Measurement{}, err
		}
		total += elapsed
	}
	return Measurement{Mean: total / float64(reps), Iters: reps}, nil
}

// NewGroupPlan compiles a schedule that synchronises only the given subset
// of ranks (a disjoint or nested sub-group barrier). Ranks outside the group
// must not appear in any signal; group members must be mutually
// synchronised.
func NewGroupPlan(s *sched.Schedule, members []int) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.IsGroupBarrier(members) {
		return nil, fmt.Errorf("run: schedule %q does not synchronise group %v", s.Name, members)
	}
	inGroup := make([]bool, s.P)
	for _, m := range members {
		inGroup[m] = true
	}
	return compile(s, inGroup)
}

// StageOps is one rank's work in one stage of a compiled plan.
type StageOps struct {
	// Stage is the stage index (tag offset) after empty-stage elimination.
	Stage int
	// Recvs and Sends list the peer ranks, in deterministic order.
	Recvs, Sends []int
}

// PlanFromOps assembles a plan directly from per-rank stage lists, bypassing
// schedule compilation. Unlike NewPlan it does not prove Eq. 3 first — that
// is the point: it exists so the plan-level protocol checker
// (analyze.CheckPlan) can be exercised against deliberately broken plans,
// and so tests can perform plan surgery. Only structural sanity is enforced
// (rank and stage indices in range); protocol correctness is the checker's
// job.
func PlanFromOps(name string, p, stages int, ops [][]StageOps) (*Plan, error) {
	if p <= 0 {
		return nil, fmt.Errorf("run: plan over %d ranks", p)
	}
	if stages < 0 {
		return nil, fmt.Errorf("run: plan with %d stages", stages)
	}
	if len(ops) != p {
		return nil, fmt.Errorf("run: %d op lists for %d ranks", len(ops), p)
	}
	pl := &Plan{Name: name, P: p, Stages: stages, ops: make([][]rankStage, p)}
	for r, list := range ops {
		for _, op := range list {
			if op.Stage < 0 || op.Stage >= stages {
				return nil, fmt.Errorf("run: rank %d op in stage %d of %d-stage plan", r, op.Stage, stages)
			}
			for _, peer := range append(append([]int(nil), op.Recvs...), op.Sends...) {
				if peer < 0 || peer >= p {
					return nil, fmt.Errorf("run: rank %d references peer %d of %d-rank plan", r, peer, p)
				}
			}
			pl.ops[r] = append(pl.ops[r], rankStage{
				stage: op.Stage,
				recvs: append([]int(nil), op.Recvs...),
				sends: append([]int(nil), op.Sends...),
			})
		}
	}
	return pl, nil
}

// Silenced returns a copy of the plan in which the listed ranks keep all
// their receives but perform none of their sends — the executable form of
// the resilience certifier's fault model (a rank whose messages are all
// lost). Running a silenced plan on a transport without failure detection
// reproduces exactly the hang the certifier's counterexample predicts.
// Other ranks' op lists are unchanged: they still wait for the silenced
// ranks' messages.
func (pl *Plan) Silenced(ranks ...int) *Plan {
	silent := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if r < 0 || r >= pl.P {
			panic(fmt.Sprintf("run: silencing rank %d of %d-rank plan", r, pl.P))
		}
		silent[r] = true
	}
	out := &Plan{Name: pl.Name, P: pl.P, Stages: pl.Stages, ops: make([][]rankStage, pl.P)}
	for r := range pl.ops {
		for _, op := range pl.ops[r] {
			ns := rankStage{stage: op.stage, recvs: append([]int(nil), op.recvs...)}
			if !silent[r] {
				ns.sends = append([]int(nil), op.sends...)
			}
			if len(ns.recvs) == 0 && len(ns.sends) == 0 {
				continue
			}
			out.ops[r] = append(out.ops[r], ns)
		}
	}
	return out
}

// RankOps returns the per-stage operation list of one rank — the data a
// transport backend (for example the TCP mesh in internal/netmpi) needs to
// execute the plan outside the simulator.
func (pl *Plan) RankOps(r int) []StageOps {
	if r < 0 || r >= pl.P {
		panic(fmt.Sprintf("run: rank %d out of range for %d-rank plan", r, pl.P))
	}
	out := make([]StageOps, len(pl.ops[r]))
	for i, op := range pl.ops[r] {
		out[i] = StageOps{
			Stage: op.stage,
			Recvs: append([]int(nil), op.recvs...),
			Sends: append([]int(nil), op.sends...),
		}
	}
	return out
}
