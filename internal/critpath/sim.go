package critpath

import (
	"math"
	"time"

	"topobarrier/internal/fabric"
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
	"topobarrier/internal/telemetry"
)

// Span names of simulated messages: netmpi's send/recv pair under the
// transport class "sim".
const (
	simSend = sendPrefix + "sim"
	simRecv = recvPrefix + "sim"
)

// Simulate runs b once on a simulated world over fab (tag base 0) and merges
// every delivered message into a Timeline, so a simulated barrier is
// explained by the same critical-path walk, link blame and Chrome export as
// a live mesh. Each delivery becomes the span pair netmpi emits: a
// zero-length send span at the issue time and a receive span from the issue
// time to the delivery, so a message's Wait is its delivery latency. Stage
// is the message tag. Virtual seconds map onto span offsets at nanosecond
// resolution. It also returns the run's elapsed virtual time.
func Simulate(fab *fabric.Fabric, b run.Func) (*Timeline, float64, error) {
	var evs []telemetry.SpanEvent
	// Deliveries run one at a time under the world's event scheduler, so
	// the hook appends without a lock.
	hook := func(e mpi.TraceEvent) {
		sent, arrived := simOffset(e.Sent), simOffset(e.Arrived)
		evs = append(evs,
			telemetry.SpanEvent{Name: simSend, Rank: e.Src, Stage: e.Tag, Peer: e.Dst, Tag: e.Tag, Start: sent},
			telemetry.SpanEvent{Name: simRecv, Rank: e.Dst, Stage: e.Tag, Peer: e.Src, Tag: e.Tag, Start: sent, Dur: arrived - sent})
	}
	w := mpi.NewWorld(fab, mpi.WithTracer(hook))
	elapsed, err := w.Run(func(c *mpi.Comm) { b(c, 0) })
	if err != nil {
		return nil, 0, err
	}
	tl, err := merge(evs, fab.P(), -1, true)
	if err != nil {
		return nil, 0, err
	}
	return tl, elapsed, nil
}

// simOffset converts virtual seconds to a tracer offset.
func simOffset(t float64) time.Duration {
	return time.Duration(math.Round(t * 1e9))
}
