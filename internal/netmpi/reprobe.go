package netmpi

import (
	"fmt"
	"sort"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
)

// Direction is one ordered link i→j of the mesh.
type Direction struct {
	From, To int
}

func (d Direction) String() string { return fmt.Sprintf("%d→%d", d.From, d.To) }

// ReprobeReport describes one targeted re-probe pass.
type ReprobeReport struct {
	// Screened is the number of directions the cheap screening phase
	// measured: every off-diagonal direction for ReprobeStale, only the
	// caller's implicated set for ReprobeDirections.
	Screened int
	// Stale lists the directions whose screened round-trip cost drifted
	// beyond the tolerance — exactly the set the full prober revisited.
	Stale []Direction
	// ScreenSamples / FullSamples count the timed ping-pongs each phase
	// spent; the asymmetry between them is the whole point of two phases.
	ScreenSamples int
	FullSamples   int
	// Elapsed is the total wall-clock time of both phases.
	Elapsed time.Duration
}

// ReprobeStale refreshes a live profile in place after drift is suspected,
// spending the full adaptive probe budget only where it is needed — the
// online analogue of ProbeProfileCached's revalidation, covering the whole
// mesh instead of one sampled round. Phase one screens every direction with
// a two-sample probe (edge-colored rounds, so it costs ~2(P−1) parallel
// slots) and compares the observed round-trip cost against the profile's
// O+L under RelDrift. Phase two re-probes only the drifted directions with
// the caller's full adaptive options and patches pf in place (including the
// O[i][i] diagonal fold). Directions within tolerance keep their existing
// entries untouched.
//
// Probe traffic lives in its own tag region, so ReprobeStale is safe to run
// while the same mesh executes barriers — measurements taken under load are
// exactly what an online controller wants to feed back into the model.
func ReprobeStale(peers []*Peer, pf *profile.Profile, opts ProbeOptions, driftTol float64) (*ReprobeReport, error) {
	if err := validateProbePeers(peers); err != nil {
		return nil, err
	}
	if pf == nil || pf.P != len(peers) {
		return nil, fmt.Errorf("netmpi: reprobe needs a %d-rank profile", len(peers))
	}
	if driftTol <= 0 {
		return nil, fmt.Errorf("netmpi: reprobe needs a positive drift tolerance, got %g", driftTol)
	}
	opts = opts.withDefaults()
	p := len(peers)
	rep := &ReprobeReport{}
	start := time.Now()
	span := opts.Tracer.Begin("probe.reprobe", -1, -1, -1)
	defer span.End()

	// Phase one: cheap screen of every direction. Two samples per direction
	// keep the phase O(P) wall-clock at ⌊P/2⌋-way round parallelism while
	// still taking a minimum over more than one observation.
	screen := screenOpts(opts)
	var stale []freshDir
	for _, round := range probe.Rounds(p) {
		results, err := probeRound(peers, round, screen)
		if err != nil {
			return nil, fmt.Errorf("netmpi: reprobe screen: %w", err)
		}
		for k, pr := range round {
			for _, f := range []freshDir{
				{Direction{pr.I, pr.J}, results[k].fwd},
				{Direction{pr.J, pr.I}, results[k].rev},
			} {
				rep.Screened++
				rep.ScreenSamples += f.r.n
				old := pf.O.At(f.d.From, f.d.To) + pf.L.At(f.d.From, f.d.To)
				if RelDrift(old, f.r.o+f.r.l) > driftTol {
					stale = append(stale, f)
				}
			}
		}
	}
	return finishReprobe(peers, pf, opts, rep, stale, start)
}

// ReprobeDirections is ReprobeStale aimed at an implicated subset: instead
// of screening all P·(P−1) directions it screens only dirs (deduplicated;
// a two-sample probe per direction, sequential — the implicated set is
// expected to be a few links), then runs the same full adaptive re-probe
// over whichever of them actually drifted, patching pf in place. This is
// the path the retune controller takes when critpath's per-link blame has
// already named suspects: the screen cost scales with the evidence, not
// with the mesh.
func ReprobeDirections(peers []*Peer, pf *profile.Profile, opts ProbeOptions, driftTol float64, dirs []Direction) (*ReprobeReport, error) {
	if err := validateProbePeers(peers); err != nil {
		return nil, err
	}
	if pf == nil || pf.P != len(peers) {
		return nil, fmt.Errorf("netmpi: reprobe needs a %d-rank profile", len(peers))
	}
	if driftTol <= 0 {
		return nil, fmt.Errorf("netmpi: reprobe needs a positive drift tolerance, got %g", driftTol)
	}
	p := len(peers)
	seen := make(map[Direction]bool, len(dirs))
	uniq := make([]Direction, 0, len(dirs))
	for _, d := range dirs {
		if d.From < 0 || d.From >= p || d.To < 0 || d.To >= p || d.From == d.To {
			return nil, fmt.Errorf("netmpi: reprobe direction %s invalid for %d ranks", d, p)
		}
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("netmpi: reprobe needs at least one direction")
	}
	sort.Slice(uniq, func(a, b int) bool {
		if uniq[a].From != uniq[b].From {
			return uniq[a].From < uniq[b].From
		}
		return uniq[a].To < uniq[b].To
	})
	opts = opts.withDefaults()
	rep := &ReprobeReport{}
	start := time.Now()
	span := opts.Tracer.Begin("probe.reprobe_aimed", -1, -1, -1)
	defer span.End()

	screen := screenOpts(opts)
	var stale []freshDir
	for _, d := range uniq {
		r, err := probeDirection(peers, d.From, d.To, screen)
		if err != nil {
			return nil, fmt.Errorf("netmpi: reprobe screen %s: %w", d, err)
		}
		rep.Screened++
		rep.ScreenSamples += r.n
		old := pf.O.At(d.From, d.To) + pf.L.At(d.From, d.To)
		if RelDrift(old, r.o+r.l) > driftTol {
			stale = append(stale, freshDir{d, r})
		}
	}
	return finishReprobe(peers, pf, opts, rep, stale, start)
}

// freshDir pairs a screened direction with its two-sample measurement.
type freshDir struct {
	d Direction
	r dirResult
}

// screenOpts derives the cheap phase-one options: two samples, no
// stability stopping.
func screenOpts(opts ProbeOptions) ProbeOptions {
	screen := opts
	screen.MaxIters = 2
	if opts.MaxIters < 2 {
		screen.MaxIters = opts.MaxIters
	}
	screen.StableK = 0
	return screen
}

// finishReprobe is the shared tail of both re-probe entry points: record the
// screen counters, run the full adaptive probe over the drifted directions
// (sequential on purpose — the stale set is expected to be a few links, and
// serial probing keeps each measurement uncontended by the others), patch
// the profile, and validate it.
func finishReprobe(peers []*Peer, pf *profile.Profile, opts ProbeOptions, rep *ReprobeReport, stale []freshDir, start time.Time) (*ReprobeReport, error) {
	sort.Slice(stale, func(a, b int) bool {
		if stale[a].d.From != stale[b].d.From {
			return stale[a].d.From < stale[b].d.From
		}
		return stale[a].d.To < stale[b].d.To
	})
	opts.Registry.Counter("probe_reprobe_screened_total").Add(int64(rep.Screened))
	opts.Registry.Counter("probe_reprobe_stale_total").Add(int64(len(stale)))

	for _, f := range stale {
		r, err := probeDirection(peers, f.d.From, f.d.To, opts)
		if err != nil {
			return nil, fmt.Errorf("netmpi: reprobing %s: %w", f.d, err)
		}
		pf.O.Set(f.d.From, f.d.To, r.o)
		pf.L.Set(f.d.From, f.d.To, r.l)
		rep.Stale = append(rep.Stale, f.d)
		rep.FullSamples += r.n
	}
	if len(stale) > 0 {
		setOii(pf)
	}
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("netmpi: reprobed profile invalid: %w", err)
	}
	return rep, nil
}
