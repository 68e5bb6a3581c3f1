package netmpi

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"topobarrier/internal/probe"
	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/telemetry"
)

// probeTagBase keeps probe traffic out of the barrier tag windows
// ([0, 2·run.TagSpan) under MeasureBarrier's alternation).
const probeTagBase = 1 << 20

// ProbeOptions configures ProbeProfileOpts. The zero value (after defaults)
// is the parallel round schedule with 8 fixed ping-pongs per direction and a
// 5 s per-receive deadline.
type ProbeOptions struct {
	// MaxIters is the hard cap of timed ping-pongs per ordered pair; 0
	// selects 8.
	MaxIters int
	// StableK enables adaptive sampling: a direction stops early once its
	// running minimum RTT has not improved for StableK consecutive samples.
	// Minima converge fast under one-sided scheduling noise, so most quiet
	// links stop well before MaxIters. 0 disables early stopping. When it
	// fires, a direction has taken at least StableK+1 samples (the first
	// sample always establishes the minimum).
	StableK int
	// Deadline bounds each probe receive; 0 selects 5 s.
	Deadline time.Duration
	// Workers caps the concurrently probed pairs within one round; 0 means
	// all ⌊P/2⌋ pairs of the round at once. It never changes which pairs
	// share a round, only how many of a round's slots run simultaneously.
	Workers int
	// Sequential restores the strict one-pair-at-a-time probe order (every
	// ordered pair back to back) — the pre-round baseline, kept for
	// benchmarking and for debugging contention suspicions.
	Sequential bool
	// Registry, when non-nil, receives probe_rounds_total,
	// probe_directions_total, probe_samples_total, and the
	// probe_samples_per_pair histogram.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records one probe.profile span for the whole
	// measurement and one probe.round span per parallel round.
	Tracer *telemetry.Tracer
}

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 8
	}
	if o.Deadline == 0 {
		o.Deadline = 5 * time.Second
	}
	return o
}

// key returns the fingerprint component of the options: the fields that
// change what a measurement means. Workers and Sequential only change the
// wall-clock schedule, so profiles probed either way share a cache slot.
func (o ProbeOptions) key() string {
	return fmt.Sprintf("iters=%d,stablek=%d", o.MaxIters, o.StableK)
}

// ProbeReport describes how a probe run spent its budget.
type ProbeReport struct {
	// Rounds is the number of parallel rounds executed (0 in sequential
	// mode and on a pure cache hit).
	Rounds int
	// Samples[i][j] is the number of timed ping-pongs direction i→j took;
	// 0 on the diagonal and for directions served from the cache.
	Samples [][]int
	// Elapsed is the probe wall-clock time.
	Elapsed time.Duration
}

func newProbeReport(p int) *ProbeReport {
	r := &ProbeReport{Samples: make([][]int, p)}
	for i := range r.Samples {
		r.Samples[i] = make([]int, p)
	}
	return r
}

// TotalSamples returns the total number of timed ping-pongs taken.
func (r *ProbeReport) TotalSamples() int {
	n := 0
	for _, row := range r.Samples {
		for _, s := range row {
			n += s
		}
	}
	return n
}

// SampleStats summarises the per-direction sample counts (min, median, max)
// over the directions that were actually probed.
func (r *ProbeReport) SampleStats() (min, median, max float64) {
	var xs []float64
	for _, row := range r.Samples {
		for _, s := range row {
			if s > 0 {
				xs = append(xs, float64(s))
			}
		}
	}
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return stats.Min(xs), stats.Median(xs), stats.Max(xs)
}

// dirResult is one probed direction: the fitted O/L estimates and the number
// of samples spent on them.
type dirResult struct {
	o, l float64
	n    int
}

// pairResult holds both directions of one pair slot.
type pairResult struct {
	fwd, rev       dirResult
	fwdErr, revErr error
}

func validateProbePeers(peers []*Peer) error {
	p := len(peers)
	if p < 2 {
		return fmt.Errorf("netmpi: probe needs at least 2 peers, got %d", p)
	}
	for r, pe := range peers {
		if pe == nil || pe.Rank() != r || pe.Size() != p {
			return fmt.Errorf("netmpi: probe needs the full mesh in rank order")
		}
	}
	return nil
}

// ProbeProfile measures a topological profile over a live mesh with the
// parallel round schedule and a fixed iteration count — the historical
// signature, now backed by ProbeProfileOpts.
func ProbeProfile(peers []*Peer, iters int, deadline time.Duration) (*profile.Profile, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("netmpi: non-positive probe iteration count %d", iters)
	}
	pf, _, err := ProbeProfileOpts(peers, ProbeOptions{MaxIters: iters, Deadline: deadline})
	return pf, err
}

// ProbeProfileOpts measures a topological profile (the paper's O and L
// matrices, §IV) over a live in-process mesh — the real-transport analogue
// of internal/probe's simulator benchmarks, and the input the §VI validation
// needs to predict what the *transport* should do rather than what the
// simulator would.
//
// For every ordered pair (i, j) it runs empty-frame ping-pongs: O[i][j] is
// the fastest observed Send call (the eager write cost), L[i][j] is the
// fastest half round trip minus that overhead, and O[i][i] is the rank's
// fastest send overhead to any peer. Minima rather than means deliberately:
// scheduling noise on a shared host only ever adds latency, so the minimum
// is the closest observation to the platform constants the model wants.
//
// Pairs are scheduled as edge-colored rounds (probe.Rounds): each round runs
// up to ⌊P/2⌋ disjoint pairs concurrently, every rank in at most one timed
// exchange per round, so measurements stay uncontended while the P·(P−1)
// sequential ping-pong blocks collapse into ~2(P−1) parallel direction
// slots. Rounds are separated by a full join, so a rank never has two
// in-flight timed exchanges. StableK additionally stops each direction as
// soon as its running minimum is stable.
func ProbeProfileOpts(peers []*Peer, opts ProbeOptions) (*profile.Profile, *ProbeReport, error) {
	if err := validateProbePeers(peers); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	if opts.MaxIters < 0 || opts.StableK < 0 {
		return nil, nil, fmt.Errorf("netmpi: negative probe budget (iters=%d, stableK=%d)", opts.MaxIters, opts.StableK)
	}
	p := len(peers)
	platform := "netmpi-loopback"
	if sig := peers[0].TransportSignature(); sig != "tcp" {
		// A hybrid mesh is a different platform: its O/L matrices carry the
		// intra-node vs cross-node class gap the pure-TCP mesh cannot show.
		platform = "netmpi-hybrid"
	}
	pf := profile.New(fmt.Sprintf("%s(P=%d)", platform, p), p)
	rep := newProbeReport(p)
	start := time.Now()
	span := opts.Tracer.Begin("probe.profile", -1, -1, -1)
	defer span.End()

	record := func(i, j int, r dirResult) {
		pf.O.Set(i, j, r.o)
		pf.L.Set(i, j, r.l)
		rep.Samples[i][j] = r.n
		opts.Registry.Counter("probe_directions_total").Inc()
		opts.Registry.Counter("probe_samples_total").Add(int64(r.n))
		opts.Registry.Histogram("probe_samples_per_pair", probeSampleBuckets()).Observe(float64(r.n))
	}

	if opts.Sequential {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i == j {
					continue
				}
				r, err := probeDirection(peers, i, j, opts)
				if err != nil {
					return nil, nil, fmt.Errorf("netmpi: probing %d→%d: %w", i, j, err)
				}
				record(i, j, r)
			}
		}
	} else {
		rounds := probe.Rounds(p)
		rep.Rounds = len(rounds)
		for rn, round := range rounds {
			roundSpan := opts.Tracer.Begin("probe.round", -1, rn, -1)
			results, err := probeRound(peers, round, opts)
			roundSpan.End()
			opts.Registry.Counter("probe_rounds_total").Inc()
			if err != nil {
				return nil, nil, err
			}
			for k, pr := range round {
				record(pr.I, pr.J, results[k].fwd)
				record(pr.J, pr.I, results[k].rev)
			}
		}
	}

	setOii(pf)
	rep.Elapsed = time.Since(start)
	if err := pf.Validate(); err != nil {
		return nil, nil, fmt.Errorf("netmpi: probed profile invalid: %w", err)
	}
	return pf, rep, nil
}

// probeSampleBuckets covers sample counts from 1 to well past any sane
// MaxIters.
func probeSampleBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}
}

// setOii fills the diagonal: the cost of initiating a request that sends
// nothing, bounded above by the cheapest real send the rank performed. The
// fold initialises from the first off-diagonal entry explicitly — a 0.0
// sentinel would mistake a genuine zero-overhead link for "unset" and pick
// the wrong minimum.
func setOii(pf *profile.Profile) {
	for i := 0; i < pf.P; i++ {
		min, first := 0.0, true
		for j := 0; j < pf.P; j++ {
			if i == j {
				continue
			}
			if o := pf.O.At(i, j); first || o < min {
				min, first = o, false
			}
		}
		pf.O.Set(i, i, min)
	}
}

// probeRound runs one round of disjoint pairs, up to opts.Workers of them
// concurrently, and joins before returning — the concurrency heart of the
// parallel schedule. Each slot probes its pair's two directions back to
// back, so a rank is in exactly one timed exchange at any instant.
func probeRound(peers []*Peer, round []probe.Pair, opts ProbeOptions) ([]pairResult, error) {
	workers := opts.Workers
	if workers <= 0 || workers > len(round) {
		workers = len(round)
	}
	sem := make(chan struct{}, workers)
	results := make([]pairResult, len(round))
	var wg sync.WaitGroup
	for k, pr := range round {
		k, pr := k, pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[k].fwd, results[k].fwdErr = probeDirection(peers, pr.I, pr.J, opts)
			if results[k].fwdErr != nil {
				return
			}
			results[k].rev, results[k].revErr = probeDirection(peers, pr.J, pr.I, opts)
		}()
	}
	wg.Wait()
	var errs []error
	for k, pr := range round {
		if err := results[k].fwdErr; err != nil {
			errs = append(errs, fmt.Errorf("netmpi: probing %d→%d: %w", pr.I, pr.J, err))
		}
		if err := results[k].revErr; err != nil {
			errs = append(errs, fmt.Errorf("netmpi: probing %d→%d: %w", pr.J, pr.I, err))
		}
	}
	return results, errors.Join(errs...)
}

// probeDirection times ping-pongs i→j. The two sides share a stop latch:
// whichever side errors first closes it, cancelling the partner's pending
// receive, so a broken pair surfaces immediately instead of stalling for the
// partner's full receive deadline. Normal completion closes the latch too,
// which is how the echo side learns the (adaptively chosen) sample count is
// over.
func probeDirection(peers []*Peer, i, j int, opts ProbeOptions) (dirResult, error) {
	p := len(peers)
	ping := probeTagBase + 2*(i*p+j)
	pong := ping + 1

	stop := make(chan struct{})
	var stopOnce sync.Once
	latch := func() { stopOnce.Do(func() { close(stop) }) }

	var echoErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer latch()
		for {
			if _, err := peers[j].RecvCancel(i, ping, opts.Deadline, stop); err != nil {
				if !errors.Is(err, ErrRecvCancelled) {
					echoErr = err
				}
				return
			}
			if err := peers[j].Send(i, pong, nil); err != nil {
				echoErr = err
				return
			}
		}
	}()

	var minRTT, minSend time.Duration
	var pingErr error
	n, stable, first := 0, 0, true
	for n < opts.MaxIters {
		t0 := time.Now()
		if pingErr = peers[i].Send(j, ping, nil); pingErr != nil {
			break
		}
		sendCost := time.Since(t0)
		if _, pingErr = peers[i].RecvCancel(j, pong, opts.Deadline, stop); pingErr != nil {
			if errors.Is(pingErr, ErrRecvCancelled) {
				pingErr = nil // the echo side failed first; report its error
			}
			break
		}
		rtt := time.Since(t0)
		n++
		if first || rtt < minRTT {
			minRTT = rtt
			stable = 0
		} else {
			stable++
		}
		if first || sendCost < minSend {
			minSend = sendCost
		}
		first = false
		if opts.StableK > 0 && stable >= opts.StableK {
			break
		}
	}
	latch()
	<-done
	if pingErr != nil {
		return dirResult{}, pingErr
	}
	if echoErr != nil {
		return dirResult{}, fmt.Errorf("echo side: %w", echoErr)
	}
	o := minSend.Seconds()
	l := minRTT.Seconds()/2 - o
	if l < 0 {
		l = 0
	}
	return dirResult{o: o, l: l, n: n}, nil
}

// ProbeFingerprint is the cache key of a mesh probe: the mesh size and the
// measurement-relevant probe options. Loopback listener ports are ephemeral
// and deliberately excluded — on one host, every P-rank loopback mesh is the
// same platform.
func ProbeFingerprint(p int, opts ProbeOptions) profile.Fingerprint {
	opts = opts.withDefaults()
	return profile.FingerprintOf("netmpi-loopback", strconv.Itoa(p), opts.key())
}

// MeshFingerprint is the cache key of a probe over a specific live mesh: for
// a pure-TCP mesh it is exactly ProbeFingerprint (cache entries written
// before hybrid transports existed stay valid), while a hybrid mesh keys on
// its transport signature too — a profile measured with rings between
// co-located ranks must never answer for a pure-TCP mesh or for a different
// co-location shape, since the entire point is that their cost matrices
// differ.
func MeshFingerprint(peers []*Peer, opts ProbeOptions) profile.Fingerprint {
	opts = opts.withDefaults()
	p := len(peers)
	sig := "tcp"
	if p > 0 {
		sig = peers[0].TransportSignature()
	}
	if sig == "tcp" {
		return ProbeFingerprint(p, opts)
	}
	return profile.FingerprintOf("netmpi-hybrid", strconv.Itoa(p), opts.key(), sig)
}

// ProbeProfileCached is ProbeProfileOpts behind a fingerprinted profile
// cache. A miss probes the full mesh and stores the result. A hit returns
// the saved profile; with driftTol > 0 it first re-validates a sampled
// subset of links (the first tournament round: ⌊P/2⌋ disjoint pairs, both
// directions) against the cache — directions whose round-trip cost (O+L)
// drifted beyond the relative tolerance are patched with the fresh
// measurement and the entry is re-stored; if more than half the sampled
// directions drifted, the whole profile is considered stale and re-probed
// from scratch. The returned bool reports whether the cache was hit.
func ProbeProfileCached(peers []*Peer, opts ProbeOptions, cache *profile.Cache, driftTol float64) (*profile.Profile, *ProbeReport, bool, error) {
	if cache == nil {
		pf, rep, err := ProbeProfileOpts(peers, opts)
		return pf, rep, false, err
	}
	if err := validateProbePeers(peers); err != nil {
		return nil, nil, false, err
	}
	opts = opts.withDefaults()
	p := len(peers)
	fp := MeshFingerprint(peers, opts)
	cached, hit, _ := cache.Load(fp) // a corrupt entry is a miss; Store overwrites it
	if hit && cached.P != p {
		hit = false
	}
	if !hit {
		pf, rep, err := ProbeProfileOpts(peers, opts)
		if err != nil {
			return nil, nil, false, err
		}
		if err := cache.Store(fp, pf); err != nil {
			return nil, nil, false, fmt.Errorf("netmpi: storing probed profile: %w", err)
		}
		return pf, rep, false, nil
	}
	if driftTol <= 0 {
		return cached, newProbeReport(p), true, nil
	}

	// Re-validate a sampled subset: one parallel round over disjoint pairs.
	start := time.Now()
	round := probe.Rounds(p)[0]
	results, err := probeRound(peers, round, opts)
	if err != nil {
		return nil, nil, true, fmt.Errorf("netmpi: cache revalidation: %w", err)
	}
	rep := newProbeReport(p)
	rep.Rounds = 1
	type staleDir struct {
		i, j int
		r    dirResult
	}
	var stale []staleDir
	checked := 0
	for k, pr := range round {
		for _, d := range []struct {
			i, j int
			r    dirResult
		}{{pr.I, pr.J, results[k].fwd}, {pr.J, pr.I, results[k].rev}} {
			checked++
			rep.Samples[d.i][d.j] = d.r.n
			old := cached.O.At(d.i, d.j) + cached.L.At(d.i, d.j)
			fresh := d.r.o + d.r.l
			if RelDrift(old, fresh) > driftTol {
				stale = append(stale, staleDir{d.i, d.j, d.r})
			}
		}
	}
	opts.Registry.Counter("probe_cache_revalidated_total").Add(int64(checked))
	opts.Registry.Counter("probe_cache_stale_links_total").Add(int64(len(stale)))
	if 2*len(stale) > checked {
		// The platform moved, not a link: the cached entry is worthless.
		pf, frep, err := ProbeProfileOpts(peers, opts)
		if err != nil {
			return nil, nil, false, err
		}
		if err := cache.Store(fp, pf); err != nil {
			return nil, nil, false, fmt.Errorf("netmpi: storing re-probed profile: %w", err)
		}
		return pf, frep, false, nil
	}
	for _, s := range stale {
		cached.O.Set(s.i, s.j, s.r.o)
		cached.L.Set(s.i, s.j, s.r.l)
	}
	if len(stale) > 0 {
		setOii(cached)
		if err := cache.Store(fp, cached); err != nil {
			return nil, nil, true, fmt.Errorf("netmpi: re-storing revalidated profile: %w", err)
		}
	}
	rep.Elapsed = time.Since(start)
	if err := cached.Validate(); err != nil {
		return nil, nil, true, fmt.Errorf("netmpi: revalidated profile invalid: %w", err)
	}
	return cached, rep, true, nil
}

// RelDrift is the relative distance between a cached and a fresh cost,
// normalised by the smaller of the two. Normalising by the cached value alone
// would saturate at 1 when the cache is too high (|fresh−old|/old < 1 for any
// fresh < old), making large tolerances blind to exactly the stale entries
// they should catch; the symmetric form grows without bound in both
// directions. The retune controller judges observed against predicted
// barrier time with the same distance.
func RelDrift(old, fresh float64) float64 {
	if old <= 0 || fresh <= 0 {
		if old == fresh {
			return 0
		}
		return math.Inf(1)
	}
	d := fresh - old
	if d < 0 {
		d = -d
	}
	m := old
	if fresh < m {
		m = fresh
	}
	return d / m
}
