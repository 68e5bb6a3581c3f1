package topobarrier

import (
	"net"
	"time"

	"topobarrier/internal/coll"
	"topobarrier/internal/critpath"
	"topobarrier/internal/library"
	"topobarrier/internal/netmpi"
	"topobarrier/internal/predict"
	"topobarrier/internal/run"
	"topobarrier/internal/search"
)

// This file exposes the extensions beyond the paper's core method: searched
// schedules (§VII.B's wider space), execution tracing, one-shot measurement,
// and topology-aware collectives. Online re-tuning (§VIII) runs on live
// meshes through internal/retune.

// CongestionModel extends predictions with NIC serialisation (§VIII).
type CongestionModel = predict.CongestionModel

// Search (see internal/search).
type (
	// SearchResult is a searched schedule and its predicted cost.
	SearchResult = search.Result
	// AnnealOptions configures the local search.
	AnnealOptions = search.AnnealOptions
	// SearchProgress is one per-round snapshot of the portfolio annealer,
	// delivered through AnnealOptions.Progress.
	SearchProgress = search.Progress
)

// ExhaustiveSearch enumerates every stage sequence for tiny jobs (P ≤ 3).
func ExhaustiveSearch(pd *Predictor, maxStages int, force bool) (*SearchResult, error) {
	return search.Exhaustive(pd, maxStages, force)
}

// AnnealSearch hill-climbs from a seed schedule with signal-level mutations.
func AnnealSearch(pd *Predictor, seed *Schedule, opts AnnealOptions) (*SearchResult, error) {
	return search.Anneal(pd, seed, opts)
}

// Tracing (see internal/critpath).

// TraceTimeline is the merged message-level view of one barrier execution,
// simulated or on a live mesh: its CriticalPath, LinkBlame and Events (for
// Chrome trace export) read the same way on either runtime.
type TraceTimeline = critpath.Timeline

// TraceBarrier runs b once on a simulated world over fab and returns the
// merged timeline of its messages and the elapsed virtual time.
func TraceBarrier(fab *Fabric, b BarrierFunc) (*TraceTimeline, float64, error) {
	return critpath.Simulate(fab, b)
}

// One-shot measurement (see internal/run).

// MeasureCold times single-shot executions in fresh runs.
func MeasureCold(w *World, b BarrierFunc, reps int) (Measurement, error) {
	return run.MeasureCold(w, b, reps)
}

// Collectives (see internal/coll).

// HierGather composes a topology-aware small-message gather over the
// hierarchy.
func HierGather(pd *Predictor, tree *ClusterTree, builders []Builder) (*Schedule, error) {
	return coll.Gather(pd, tree, builders)
}

// HierBcast composes a topology-aware small-message broadcast.
func HierBcast(pd *Predictor, tree *ClusterTree, builders []Builder) (*Schedule, error) {
	return coll.Bcast(pd, tree, builders)
}

// BinomialBcast returns the topology-neutral binomial broadcast baseline.
func BinomialBcast(p int) *Schedule { return coll.BinomialBcast(p) }

// BinomialGather returns the topology-neutral binomial gather baseline.
func BinomialGather(p int) *Schedule { return coll.BinomialGather(p) }

// Transfer executes a sized signal pattern for the calling rank.
func Transfer(c *Comm, s *Schedule, tagBase, bytes int) { run.Transfer(c, s, tagBase, bytes) }

// TransferFunc adapts a sized pattern to a BarrierFunc.
func TransferFunc(s *Schedule, bytes int) BarrierFunc { return run.TransferFunc(s, bytes) }

// ValidateBroadcast checks broadcast semantics by delay injection.
func ValidateBroadcast(w *World, s *Schedule, root int, delay float64) error {
	return run.ValidateBroadcast(w, s, root, delay)
}

// ValidateGather checks gather semantics by delay injection.
func ValidateGather(w *World, s *Schedule, root int, delay float64, delayRanks []int) error {
	return run.ValidateGather(w, s, root, delay, delayRanks)
}

// Deployment (see internal/library and internal/netmpi).

// BarrierLibrary is an on-disk cache of tuned barriers keyed by platform.
type BarrierLibrary = library.Library

// LibraryEntry identifies one stored barrier.
type LibraryEntry = library.Entry

// OpenLibrary creates (if needed) and opens a barrier library directory.
func OpenLibrary(dir string) (*BarrierLibrary, error) { return library.Open(dir) }

// NetPeer is one rank's endpoint of a real TCP mesh executing tuned plans.
// The mesh is fail-fast: the first dead link wakes every blocked Recv —
// bounded-deadline or not — with a descriptive error, so a crashed peer
// cannot hang the survivors (see internal/netmpi's failure model).
type NetPeer = netmpi.Peer

// NetListen opens a rank's mesh listener.
func NetListen(addr string) (net.Listener, error) { return netmpi.Listen(addr) }

// NetDial builds the TCP mesh for one rank. Dials retry refused connections
// with exponential backoff within the timeout, so ranks may start in any
// order.
func NetDial(rank int, addrs []string, ln net.Listener, timeout time.Duration) (*NetPeer, error) {
	return netmpi.Dial(rank, addrs, ln, timeout)
}
