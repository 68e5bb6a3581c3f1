// Package netmpi executes compiled barrier plans over real TCP connections —
// the transport that turns the tuned signal patterns into a deployable
// library outside the simulator (§VIII: "employ this method in a library
// implementation which would benefit unmodified application codes").
//
// Each rank owns one Peer: a listener plus one duplex TCP connection to
// every other rank (rank i dials every j < i and accepts from every j > i,
// so the mesh forms without a coordinator). Mesh formation tolerates the
// listener-startup race: dials retry with exponential backoff until the
// formation timeout, so ranks need not start in any particular order.
// Messages are length-prefixed frames carrying a tag; per-connection reader
// goroutines demultiplex frames into per-(source, tag) mailboxes, preserving
// per-link FIFO order exactly like the simulator's non-overtaking guarantee.
// Mailboxes are unbounded queues and readers never block on delivery, so a
// slow consumer on one tag cannot head-of-line-block other tags from the
// same source.
//
// Barrier correctness needs only the knowledge recurrence of the schedule
// (Eq. 3), which holds for eager sends, so sends are plain buffered writes;
// a rank leaves the barrier when every signal addressed to it has arrived.
//
// # Failure model
//
// A Peer fails as a unit, and it fails fast. The first connection error —
// including a remote peer closing or crashing (EOF mid-stream) — latches a
// descriptive error and closes the peer's done channel, which wakes every
// blocked Recv immediately, deadline or not. A collective protocol cannot
// make progress once any participant is gone, so the whole peer turning
// poisoned is the correct granularity: callers see exactly one of
//
//   - the payload, if the frame arrived before (or despite) the failure —
//     already-delivered mail stays readable;
//   - the latched transport error naming the dead link, if the mesh broke;
//   - a timeout error naming the missing (source, tag), if the deadline
//     elapsed with the mesh healthy (e.g. a silently dropped frame);
//   - a "peer closed" error if the local rank called Close mid-wait.
//
// Only a locally initiated Close is an orderly shutdown; everything else,
// EOF included, is a failure. No call hangs forever: Recv with a deadline
// is bounded by it, and Recv without one is bounded by failure detection.
package netmpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"topobarrier/internal/analyze"
	"topobarrier/internal/run"
	"topobarrier/internal/sched"
	"topobarrier/internal/telemetry"
)

// Peer is one rank's endpoint in the fully connected mesh. Each link is
// carried by exactly one transport: framed TCP (conns[j] non-nil) or the
// in-process shared-memory rings (shmOut[j]/shmIn[j] non-nil), selected at
// Dial time from the co-location map (WithColocation). Both transports
// terminate in the same mailboxes and the same failure latches, so every
// receive path behaves identically regardless of what carried the frame.
type Peer struct {
	rank  int
	size  int
	conns []net.Conn

	// Hybrid transport state: nodes is the co-location vector (nil = pure
	// TCP), hub the segment rendezvous, shmOut[j]/shmIn[j] the per-direction
	// rings of shared-memory links (nil entries for TCP links).
	hub    *ShmHub
	nodes  []int
	shmOut []*shmRing
	shmIn  []*shmRing

	mu     sync.Mutex
	boxes  map[mailKey]*mailbox
	errVal error
	closed bool
	done   chan struct{} // closed on first failure or on Close; wakes all waiters
	wg     sync.WaitGroup

	// Per-link failure state, feeding the resilient execution path. fail()
	// latches both granularities: linkErr[src]/linkDown[src] record which
	// link broke (BarrierResilient keeps going around it), while errVal/done
	// preserve the peer-fails-as-a-unit semantics every plain Recv sees.
	// closedCh closes only on a locally initiated Close — the one event that
	// must stop the resilient path too.
	linkErr  []error
	linkDown []chan struct{}
	closedCh chan struct{}

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	m      peerMetrics
}

// Option configures a Peer at Dial time.
type Option func(*Peer)

// WithTelemetry attaches a metrics registry: per-link frame and byte
// counters, receive-wait and barrier latency histograms, dial retries, and
// failure latches. A nil registry (or omitting the option) keeps the
// disabled path: every metric call degrades to a pointer check.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(p *Peer) { p.reg = reg }
}

// WithTracer attaches a span tracer: each Barrier stage is recorded as a
// (rank, stage) span, and mesh formation as a per-rank dial span. A nil
// tracer keeps span emission a pointer check.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(p *Peer) { p.tracer = tr }
}

// peerMetrics holds the pre-resolved metric handles of one peer. The slices
// are always allocated (nil entries when telemetry is off) so the hot path
// is an index plus the metric's own nil check; `enabled` additionally gates
// the time.Now calls that latency observations need.
type peerMetrics struct {
	enabled    bool
	sendFrames []*telemetry.Counter
	sendBytes  []*telemetry.Counter
	recvFrames []*telemetry.Counter
	recvBytes  []*telemetry.Counter
	dialRetry  *telemetry.Counter
	failures   *telemetry.Counter
	recvWait   *telemetry.Histogram
	stageDur   *telemetry.Histogram
	barrierDur *telemetry.Histogram
}

// initMetrics resolves the peer's metric handles from its registry. With a
// nil registry every handle stays nil and the slices hold nil pointers.
func (p *Peer) initMetrics() {
	p.m.sendFrames = make([]*telemetry.Counter, p.size)
	p.m.sendBytes = make([]*telemetry.Counter, p.size)
	p.m.recvFrames = make([]*telemetry.Counter, p.size)
	p.m.recvBytes = make([]*telemetry.Counter, p.size)
	if p.reg == nil {
		return
	}
	p.m.enabled = true
	me := strconv.Itoa(p.rank)
	for j := 0; j < p.size; j++ {
		if j == p.rank {
			continue
		}
		pj := strconv.Itoa(j)
		tc := p.TransportOf(j).String()
		p.m.sendFrames[j] = p.reg.Counter(telemetry.Label("netmpi_send_frames_total", "rank", me, "peer", pj, "transport", tc))
		p.m.sendBytes[j] = p.reg.Counter(telemetry.Label("netmpi_send_bytes_total", "rank", me, "peer", pj, "transport", tc))
		p.m.recvFrames[j] = p.reg.Counter(telemetry.Label("netmpi_recv_frames_total", "rank", me, "peer", pj, "transport", tc))
		p.m.recvBytes[j] = p.reg.Counter(telemetry.Label("netmpi_recv_bytes_total", "rank", me, "peer", pj, "transport", tc))
	}
	p.m.dialRetry = p.reg.Counter(telemetry.Label("netmpi_dial_retries_total", "rank", me))
	p.m.failures = p.reg.Counter(telemetry.Label("netmpi_failures_total", "rank", me))
	p.m.recvWait = p.reg.Histogram(telemetry.Label("netmpi_recv_wait_seconds", "rank", me), nil)
	p.m.stageDur = p.reg.Histogram(telemetry.Label("netmpi_stage_seconds", "rank", me), nil)
	p.m.barrierDur = p.reg.Histogram(telemetry.Label("netmpi_barrier_seconds", "rank", me), nil)
}

type mailKey struct {
	src, tag int
}

// mailbox is one (source, tag) queue. It is unbounded so the per-connection
// reader can always deliver without blocking: a full queue on one tag must
// not stall frames for every other tag sharing the link. The avail channel
// (capacity 1) is a wakeup edge, not the data path; take re-arms it when
// messages remain so coalesced signals cannot strand a waiter.
type mailbox struct {
	mu    sync.Mutex
	msgs  [][]byte
	avail chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{avail: make(chan struct{}, 1)}
}

func (b *mailbox) put(msg []byte) {
	b.mu.Lock()
	b.msgs = append(b.msgs, msg)
	b.mu.Unlock()
	select {
	case b.avail <- struct{}{}:
	default:
	}
}

func (b *mailbox) take() ([]byte, bool) {
	b.mu.Lock()
	if len(b.msgs) == 0 {
		b.mu.Unlock()
		return nil, false
	}
	msg := b.msgs[0]
	b.msgs = b.msgs[1:]
	remaining := len(b.msgs)
	b.mu.Unlock()
	if remaining > 0 {
		select {
		case b.avail <- struct{}{}:
		default:
		}
	}
	return msg, true
}

// frame header: src (handshake only), tag, payload length.
const headerBytes = 8

// maxFramePayload bounds one message's payload. The largest frames the
// repository sends are the 8-byte epoch control versions; barrier and probe
// traffic carries none. A reader trusts no length header past this bound, so
// a corrupt or hostile peer cannot make it allocate up to 4 GiB.
const maxFramePayload = 1 << 16

// Dial retry/backoff bounds for the listener-startup race: the first retry
// waits dialBackoffMin, each subsequent one doubles, capped at
// dialBackoffMax, all bounded by the overall formation timeout.
const (
	dialBackoffMin = 5 * time.Millisecond
	dialBackoffMax = 200 * time.Millisecond
)

// dialRetry runs dial with exponential backoff until it succeeds or the
// deadline is exhausted, returning the connection, the number of attempts,
// and the last dial error. The final sleep is clamped to the remaining
// budget so one last attempt lands right at the deadline: giving up as soon
// as now+backoff overshoots would silently discard up to backoffMax of the
// dial budget, failing dials that a listener coming up just inside the
// deadline would have satisfied. onRetry is invoked once per failed attempt.
func dialRetry(dial func() (net.Conn, error), deadline time.Time, backoffMin, backoffMax time.Duration, onRetry func()) (net.Conn, int, error) {
	backoff := backoffMin
	attempts := 0
	for {
		attempts++
		c, err := dial()
		if err == nil {
			return c, attempts, nil
		}
		if onRetry != nil {
			onRetry()
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, attempts, err
		}
		sleep := backoff
		if sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// Listen opens a rank's listener on addr (use "127.0.0.1:0" for tests) and
// returns it; its resolved address must be distributed to all peers before
// Dial.
func Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial builds the mesh for the given rank: addrs[i] must hold rank i's
// listener address, and ln must be the listener previously created for this
// rank. It blocks until all p-1 connections are established or the timeout
// elapses. Outbound dials retry with exponential backoff within the timeout,
// so a rank may dial peers whose listeners are not up yet; a second
// handshake claiming an already-connected rank is rejected (both
// connections closed) rather than silently replacing — and leaking — the
// established one.
func Dial(rank int, addrs []string, ln net.Listener, timeout time.Duration, opts ...Option) (*Peer, error) {
	p := len(addrs)
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("netmpi: rank %d out of range for %d addresses", rank, p)
	}
	peer := &Peer{
		rank:     rank,
		size:     p,
		conns:    make([]net.Conn, p),
		shmOut:   make([]*shmRing, p),
		shmIn:    make([]*shmRing, p),
		boxes:    map[mailKey]*mailbox{},
		done:     make(chan struct{}),
		linkErr:  make([]error, p),
		linkDown: make([]chan struct{}, p),
		closedCh: make(chan struct{}),
	}
	for j := 0; j < p; j++ {
		if j != rank {
			peer.linkDown[j] = make(chan struct{})
		}
	}
	for _, opt := range opts {
		opt(peer)
	}
	// Attach the shared-memory links before any TCP work: co-located links
	// rendezvous in the hub instead of dialing, so the socket loops below
	// only cover the cross-node remainder.
	if peer.nodes != nil {
		if len(peer.nodes) != p {
			return nil, fmt.Errorf("netmpi: rank %d: colocation vector covers %d ranks, mesh has %d", rank, len(peer.nodes), p)
		}
		if peer.hub == nil {
			return nil, fmt.Errorf("netmpi: rank %d: colocation without a shared ShmHub", rank)
		}
		for j := 0; j < p; j++ {
			if j != rank && peer.TransportOf(j) == TransportShm {
				seg := peer.hub.segment(rank, j)
				peer.shmOut[j], peer.shmIn[j] = seg.rings(rank, j)
			}
		}
	}
	peer.initMetrics()
	dialSpan := peer.tracer.Begin("netmpi.dial", rank, -1, -1)
	defer dialSpan.End()
	deadline := time.Now().Add(timeout)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Dial lower-numbered ranks over TCP; identify ourselves with a 4-byte
	// rank header. Shared-memory links were attached above and dial nothing.
	// Connection errors are retried with exponential backoff until the
	// deadline: the peer's listener may simply not be up yet.
	for j := 0; j < rank; j++ {
		if peer.shmOut[j] != nil {
			continue
		}
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := net.Dialer{Deadline: deadline}
			conn, attempts, err := dialRetry(func() (net.Conn, error) {
				return d.Dial("tcp", addrs[j])
			}, deadline, dialBackoffMin, dialBackoffMax, peer.m.dialRetry.Inc)
			if err != nil {
				fail(fmt.Errorf("netmpi: rank %d dialing rank %d (%d attempts): %w",
					rank, j, attempts, err))
				return
			}
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(rank))
			if _, err := conn.Write(hdr[:]); err != nil {
				fail(fmt.Errorf("netmpi: rank %d handshake to %d: %w", rank, j, err))
				conn.Close()
				return
			}
			mu.Lock()
			peer.conns[j] = conn
			mu.Unlock()
		}()
	}

	// Accept higher-numbered TCP ranks (co-located ones never dial).
	accepts := 0
	for j := rank + 1; j < p; j++ {
		if peer.shmOut[j] == nil {
			accepts++
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := 0; a < accepts; a++ {
			if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
				dl.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				fail(fmt.Errorf("netmpi: rank %d accepting: %w", rank, err))
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				fail(fmt.Errorf("netmpi: rank %d reading handshake: %w", rank, err))
				conn.Close()
				return
			}
			src := int(binary.BigEndian.Uint32(hdr[:]))
			if src <= rank || src >= p {
				fail(fmt.Errorf("netmpi: rank %d got handshake from invalid rank %d", rank, src))
				conn.Close()
				return
			}
			if peer.shmOut[src] != nil {
				fail(fmt.Errorf("netmpi: rank %d got a TCP handshake from co-located rank %d (transport maps disagree)", rank, src))
				conn.Close()
				return
			}
			mu.Lock()
			if old := peer.conns[src]; old != nil {
				mu.Unlock()
				conn.Close()
				old.Close()
				fail(fmt.Errorf("netmpi: rank %d: duplicate handshake claiming rank %d; closed both connections", rank, src))
				return
			}
			peer.conns[src] = conn
			mu.Unlock()
		}
	}()
	wg.Wait()
	if firstErr != nil {
		peer.Close()
		return nil, firstErr
	}

	// Start the demultiplexing readers: one per TCP connection, one drainer
	// per incoming shared-memory ring. Both feed the same mailboxes.
	for j, conn := range peer.conns {
		if conn == nil {
			continue
		}
		peer.wg.Add(1)
		go peer.reader(j, conn)
	}
	for j, ring := range peer.shmIn {
		if ring == nil {
			continue
		}
		peer.wg.Add(1)
		go peer.readerShm(j, ring)
	}
	return peer, nil
}

// Rank returns this peer's rank.
func (p *Peer) Rank() int { return p.rank }

// Size returns the number of ranks in the mesh.
func (p *Peer) Size() int { return p.size }

// reader decodes frames from one connection into mailboxes. Delivery never
// blocks (mailboxes are unbounded), so one saturated (source, tag) queue
// cannot head-of-line-block the other tags multiplexed on this link.
func (p *Peer) reader(src int, conn net.Conn) {
	defer p.wg.Done()
	var hdr [headerBytes]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			p.fail(src, err)
			return
		}
		tag := int(int32(binary.BigEndian.Uint32(hdr[:4])))
		n := int(binary.BigEndian.Uint32(hdr[4:]))
		if n > maxFramePayload {
			p.fail(src, fmt.Errorf("frame header announces a %d-byte payload, over the %d-byte limit", n, maxFramePayload))
			return
		}
		var payload []byte
		if n > 0 {
			payload = make([]byte, n)
			if _, err := io.ReadFull(conn, payload); err != nil {
				p.fail(src, err)
				return
			}
		}
		p.m.recvFrames[src].Add(1)
		p.m.recvBytes[src].Add(int64(n))
		p.box(src, tag).put(payload)
	}
}

// fail latches the first transport error and closes done so every blocked
// Recv wakes immediately. A remote close — EOF on a socket, a closed ring on
// shared memory — counts as a failure: only a locally initiated Close is
// orderly, anything else means a participant is gone and the collective
// cannot complete. The latched description names the transport that failed.
func (p *Peer) fail(src int, err error) {
	var desc error
	switch {
	case errors.Is(err, errShmPeerClosed):
		desc = fmt.Errorf("netmpi: rank %d: shm link from rank %d closed (peer exited or crashed)", p.rank, src)
	case errors.Is(err, io.EOF):
		desc = fmt.Errorf("netmpi: rank %d: tcp connection from rank %d closed (peer exited or crashed)", p.rank, src)
	case errors.Is(err, io.ErrUnexpectedEOF):
		desc = fmt.Errorf("netmpi: rank %d: tcp connection from rank %d severed mid-frame (truncated stream)", p.rank, src)
	default:
		desc = fmt.Errorf("netmpi: rank %d on %s link to rank %d: %w", p.rank, p.TransportOf(src), src, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return // orderly local shutdown
	}
	if p.linkErr[src] == nil {
		p.linkErr[src] = desc
		close(p.linkDown[src])
	}
	if p.errVal != nil {
		return // peer-level latch already set by an earlier link
	}
	p.errVal = desc
	p.m.failures.Inc()
	close(p.done)
}

// LinkErr reports the latched error of the link to one peer rank, nil while
// the link is healthy. Unlike Err, which reflects the whole peer turning
// poisoned on the first failure anywhere in the mesh, LinkErr distinguishes
// which links actually broke — the information the resilient execution path
// routes around.
func (p *Peer) LinkErr(src int) error {
	if src < 0 || src >= p.size || src == p.rank {
		return fmt.Errorf("netmpi: rank %d has no link to rank %d", p.rank, src)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.linkErr[src]
}

// box returns (creating on demand) the mailbox for one (source, tag) pair.
func (p *Peer) box(src, tag int) *mailbox {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := mailKey{src, tag}
	b, ok := p.boxes[k]
	if !ok {
		b = newMailbox()
		p.boxes[k] = b
	}
	return b
}

// Send transmits one tagged message to dst. Sends are eager: completion
// means the frame entered the TCP stream or was published in the shared
// ring. The caller keeps ownership of payload on both transports (the shm
// path copies non-empty payloads for that reason). A failed or closed peer
// refuses further sends with its latched error, propagating the failure to
// senders as fast as to receivers. Payloads over maxFramePayload are
// refused.
func (p *Peer) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= p.size || dst == p.rank {
		return fmt.Errorf("netmpi: rank %d sending to invalid rank %d", p.rank, dst)
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("netmpi: rank %d sending %d bytes to %d: over the %d-byte frame limit", p.rank, len(payload), dst, maxFramePayload)
	}
	p.mu.Lock()
	err, closed := p.errVal, p.closed
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return fmt.Errorf("netmpi: rank %d: send to %d on closed peer", p.rank, dst)
	}
	if err := p.writeFrame(dst, tag, payload); err != nil {
		return fmt.Errorf("netmpi: rank %d sending to %d over %s: %w", p.rank, dst, p.TransportOf(dst), err)
	}
	return nil
}

// framePool recycles TCP frame buffers: barrier traffic sends a steady
// stream of small frames, and allocating each one was measurable on the hot
// path. Buffers grow to the largest payload they ever carried and are reused
// at that size. Pointer-to-slice so Put does not allocate a box.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// writeFrame hands one message to dst's transport, updating the send
// metrics. The shared-memory path publishes into the lock-free ring (copying
// non-empty payloads so the caller keeps ownership, matching TCP's copy into
// the frame); the TCP path encodes a pooled length-prefixed frame and writes
// it in one call.
func (p *Peer) writeFrame(dst, tag int, payload []byte) error {
	if ring := p.shmOut[dst]; ring != nil {
		if len(payload) > 0 {
			payload = append([]byte(nil), payload...)
		}
		if err := ring.push(tag, payload, p, dst); err != nil {
			return err
		}
		p.m.sendFrames[dst].Add(1)
		p.m.sendBytes[dst].Add(int64(len(payload)))
		return nil
	}
	bp := framePool.Get().(*[]byte)
	need := headerBytes + len(payload)
	frame := *bp
	if cap(frame) < need {
		frame = make([]byte, need)
	}
	frame = frame[:need]
	binary.BigEndian.PutUint32(frame[:4], uint32(int32(tag)))
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	copy(frame[headerBytes:], payload)
	_, err := p.conns[dst].Write(frame)
	*bp = frame[:0]
	framePool.Put(bp)
	if err != nil {
		return err
	}
	p.m.sendFrames[dst].Add(1)
	p.m.sendBytes[dst].Add(int64(len(payload)))
	return nil
}

// pushAbort is consulted by a spinning shm push (full ring): it converts a
// latched link or peer failure — or a local close — into an error so the
// producer never spins on a consumer that will not come back.
func (p *Peer) pushAbort(dst int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.linkErr[dst] != nil {
		return p.linkErr[dst]
	}
	if p.errVal != nil {
		return p.errVal
	}
	if p.closed {
		return fmt.Errorf("netmpi: rank %d: send to %d on closed peer", p.rank, dst)
	}
	return nil
}

// ErrRecvCancelled is returned by RecvCancel when the caller's cancel
// channel closes before a matching message arrives.
var ErrRecvCancelled = errors.New("netmpi: receive cancelled")

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. The deadline bounds the wait; zero means no time
// bound, but every Recv — deadline or not — wakes immediately when the peer
// fails or is closed, returning the latched transport error. Mail delivered
// before a failure stays readable.
func (p *Peer) Recv(src, tag int, deadline time.Duration) ([]byte, error) {
	return p.RecvCancel(src, tag, deadline, nil)
}

// RecvCancel is Recv with a third wake source: when cancel closes before a
// matching message arrives, the wait ends immediately with ErrRecvCancelled
// (mail that raced in ahead of the cancellation is still returned). A nil
// cancel channel never fires, making RecvCancel(src, tag, d, nil) ≡ Recv.
// The probe pipeline uses this to latch a failed pair: when one side of a
// timed exchange errors out, it cancels its partner's pending receive
// instead of leaving it blocked until the deadline.
func (p *Peer) RecvCancel(src, tag int, deadline time.Duration, cancel <-chan struct{}) ([]byte, error) {
	if src < 0 || src >= p.size || src == p.rank {
		return nil, fmt.Errorf("netmpi: rank %d receiving from invalid rank %d", p.rank, src)
	}
	b := p.box(src, tag)
	if p.m.enabled {
		start := time.Now()
		defer func() { p.m.recvWait.Observe(time.Since(start).Seconds()) }()
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if msg, ok := b.take(); ok {
			return msg, nil
		}
		select {
		case <-b.avail:
		case <-cancel:
			if msg, ok := b.take(); ok {
				return msg, nil
			}
			return nil, ErrRecvCancelled
		case <-p.done:
			// Drain mail that raced in ahead of the failure before
			// reporting it.
			if msg, ok := b.take(); ok {
				return msg, nil
			}
			if err := p.err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("netmpi: rank %d: peer closed while waiting for (src %d, tag %d)", p.rank, src, tag)
		case <-timeout:
			if err := p.err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("netmpi: rank %d timed out after %v waiting for (src %d, tag %d)", p.rank, deadline, src, tag)
		}
	}
}

func (p *Peer) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errVal
}

// Err reports the latched transport error, if any — nil on a healthy peer.
func (p *Peer) Err() error { return p.err() }

// Close tears the mesh down, waking any blocked Recv with a "peer closed"
// error. Close is idempotent.
func (p *Peer) Close() error {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	if !already {
		close(p.closedCh)
		if p.errVal == nil {
			close(p.done) // fail() closes it otherwise
		}
	}
	p.mu.Unlock()
	for _, c := range p.conns {
		if c != nil {
			c.Close()
		}
	}
	if !already {
		// Closing the outgoing rings is the shm transport's FIN: each
		// co-located peer's drainer does a final drain, then latches the
		// same "peer exited" failure a TCP EOF produces.
		for _, ring := range p.shmOut {
			if ring != nil {
				ring.close()
			}
		}
	}
	p.wg.Wait()
	return nil
}

// stageClass names the transport mix of one stage's links for span tagging:
// "tcp", "shm", or "mixed". On a pure-TCP mesh it is a constant — the common
// fast path costs one nil check.
func (p *Peer) stageClass(st run.StageOps) string {
	if p.nodes == nil {
		return "tcp"
	}
	sawTCP, sawShm := false, false
	classify := func(r int) {
		if p.TransportOf(r) == TransportShm {
			sawShm = true
		} else {
			sawTCP = true
		}
	}
	for _, dst := range st.Sends {
		classify(dst)
	}
	for _, src := range st.Recvs {
		classify(src)
	}
	switch {
	case sawTCP && sawShm:
		return "mixed"
	case sawShm:
		return "shm"
	default:
		return "tcp"
	}
}

// Message-span names, precomputed so the traced hot path does not
// concatenate per message. The suffix is the link's transport class; the
// span's peer attribute is the other end and the tag attribute is the wire
// tag, which is what lets critpath match a send span on one rank to the
// receive span it caused on another.
const (
	sendSpanTCP = "barrier.send:tcp"
	sendSpanShm = "barrier.send:shm"
	recvSpanTCP = "barrier.recv:tcp"
	recvSpanShm = "barrier.recv:shm"
)

func (p *Peer) sendSpanName(dst int) string {
	if p.TransportOf(dst) == TransportShm {
		return sendSpanShm
	}
	return sendSpanTCP
}

func (p *Peer) recvSpanName(src int) string {
	if p.TransportOf(src) == TransportShm {
		return recvSpanShm
	}
	return recvSpanTCP
}

// Barrier executes one compiled barrier plan over the mesh, using tags in
// [tagBase, tagBase+plan stages). The deadline bounds each receive; any
// transport failure or timeout aborts the barrier with an error naming the
// stage and the link.
func (p *Peer) Barrier(pl *run.Plan, tagBase int, deadline time.Duration) error {
	if pl.P != p.size {
		return fmt.Errorf("netmpi: %d-rank plan on %d-rank mesh", pl.P, p.size)
	}
	var barrierStart time.Time
	if p.m.enabled {
		barrierStart = time.Now()
	}
	for _, st := range pl.RankOps(p.rank) {
		tag := tagBase + st.Stage
		var stageStart time.Time
		if p.m.enabled {
			stageStart = time.Now()
		}
		var span telemetry.Span
		if p.tracer != nil {
			span = p.tracer.Begin("barrier.stage:"+p.stageClass(st), p.rank, st.Stage, -1)
		}
		for _, dst := range st.Sends {
			ms := p.tracer.BeginTag(p.sendSpanName(dst), p.rank, st.Stage, dst, tag)
			err := p.Send(dst, tag, nil)
			ms.End()
			if err != nil {
				span.End()
				return fmt.Errorf("barrier stage %d: %w", st.Stage, err)
			}
		}
		for _, src := range st.Recvs {
			ms := p.tracer.BeginTag(p.recvSpanName(src), p.rank, st.Stage, src, tag)
			_, err := p.Recv(src, tag, deadline)
			ms.End()
			if err != nil {
				span.End()
				return fmt.Errorf("barrier stage %d: %w", st.Stage, err)
			}
		}
		span.End()
		if p.m.enabled {
			p.m.stageDur.Observe(time.Since(stageStart).Seconds())
		}
	}
	if p.m.enabled {
		p.m.barrierDur.Observe(time.Since(barrierStart).Seconds())
	}
	return nil
}

// sendResilient writes one frame unless the link to dst is already latched
// as failed, in which case it reports skipped. A write error latches the
// link (not the whole peer: the resilient path's point is to keep going)
// and reports skipped too — on TCP, writes to a dead peer may buffer
// silently or surface late, so the reader-side EOF latch is the primary
// detector and the write error just confirms it.
func (p *Peer) sendResilient(dst, tag int, payload []byte) (skipped bool, err error) {
	p.mu.Lock()
	closed, linkErr := p.closed, p.linkErr[dst]
	p.mu.Unlock()
	if closed {
		return false, fmt.Errorf("netmpi: rank %d: send to %d on closed peer", p.rank, dst)
	}
	if linkErr != nil {
		return true, nil
	}
	if werr := p.writeFrame(dst, tag, payload); werr != nil {
		p.fail(dst, werr)
		return true, nil
	}
	return false, nil
}

// recvResilient waits for a message from src unless (or until) the link to
// src is latched as failed. Mail that arrived before the failure is drained
// and delivered first, exactly like the peer-level path. It reports skipped
// when the link is down, a timeout error when the deadline passes on a
// healthy link — the certified-schedule hang case, which resilience cannot
// excuse — and a closed error on local Close.
func (p *Peer) recvResilient(src, tag int, deadline time.Duration) (skipped bool, err error) {
	b := p.box(src, tag)
	if p.m.enabled {
		start := time.Now()
		defer func() { p.m.recvWait.Observe(time.Since(start).Seconds()) }()
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		if _, ok := b.take(); ok {
			return false, nil
		}
		select {
		case <-b.avail:
		case <-p.linkDown[src]:
			if _, ok := b.take(); ok {
				return false, nil
			}
			return true, nil
		case <-p.closedCh:
			if _, ok := b.take(); ok {
				return false, nil
			}
			return false, fmt.Errorf("netmpi: rank %d: peer closed while waiting for (src %d, tag %d)", p.rank, src, tag)
		case <-timeout:
			if _, ok := b.take(); ok {
				return false, nil
			}
			return false, fmt.Errorf("netmpi: rank %d timed out after %v waiting for (src %d, tag %d) on a healthy link", p.rank, deadline, src, tag)
		}
	}
}

// BarrierResilient executes one compiled barrier plan like Barrier, but
// keeps going when peers die mid-barrier: sends to and receives from latched
// failed links are skipped instead of aborting. It returns the sorted ranks
// that were skipped.
//
// The correctness contract is exactly what analyze.CertifyK certifies: if
// the plan's schedule is k-fault resilient and at most k ranks die (each
// detected as its links latch), the knowledge closure among survivors still
// holds, so every survivor's exit happens after every survivor's entry. On a
// schedule that is NOT resilient against the dead set, some survivor's
// required knowledge chain routes through a dead rank; that survivor's
// receive then waits on a healthy link whose sender is itself stalled, and
// the deadline converts the certified-impossible wait into an error rather
// than a hang. Run it only under a positive deadline for that reason.
func (p *Peer) BarrierResilient(pl *run.Plan, tagBase int, deadline time.Duration) ([]int, error) {
	if pl.P != p.size {
		return nil, fmt.Errorf("netmpi: %d-rank plan on %d-rank mesh", pl.P, p.size)
	}
	var barrierStart time.Time
	if p.m.enabled {
		barrierStart = time.Now()
	}
	skipped := make(map[int]bool)
	for _, st := range pl.RankOps(p.rank) {
		tag := tagBase + st.Stage
		var stageStart time.Time
		if p.m.enabled {
			stageStart = time.Now()
		}
		var span telemetry.Span
		if p.tracer != nil {
			span = p.tracer.Begin("barrier.stage:"+p.stageClass(st), p.rank, st.Stage, -1)
		}
		for _, dst := range st.Sends {
			ms := p.tracer.BeginTag(p.sendSpanName(dst), p.rank, st.Stage, dst, tag)
			skip, err := p.sendResilient(dst, tag, nil)
			ms.End()
			if err != nil {
				span.End()
				return nil, fmt.Errorf("barrier stage %d: %w", st.Stage, err)
			}
			if skip {
				skipped[dst] = true
			}
		}
		for _, src := range st.Recvs {
			ms := p.tracer.BeginTag(p.recvSpanName(src), p.rank, st.Stage, src, tag)
			skip, err := p.recvResilient(src, tag, deadline)
			ms.End()
			if err != nil {
				span.End()
				return nil, fmt.Errorf("barrier stage %d: %w", st.Stage, err)
			}
			if skip {
				skipped[src] = true
			}
		}
		span.End()
		if p.m.enabled {
			p.m.stageDur.Observe(time.Since(stageStart).Seconds())
		}
	}
	if p.m.enabled {
		p.m.barrierDur.Observe(time.Since(barrierStart).Seconds())
	}
	out := make([]int, 0, len(skipped))
	for r := range skipped {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

// VetPlan is the pre-execution gate for real-network runs: it runs the
// barriervet static analysis over the schedule, compiles it only when the
// report carries no Error-severity findings, then runs the plan-level
// protocol checks (matched sends/receives, tag budget, rendezvous cycles)
// over the compiled artifact — the thing that actually touches sockets.
// Unlike run.NewPlan's bare boolean check, a refusal explains itself: the
// returned report holds the stalled knowledge pairs, chain counterexamples,
// or protocol violations, and is returned even on failure so callers can
// render it.
func VetPlan(s *sched.Schedule, opts analyze.Options) (*run.Plan, *analyze.Report, error) {
	rep := analyze.Analyze(s, opts)
	if err := rep.Err(); err != nil {
		return nil, rep, fmt.Errorf("netmpi: refusing to execute: %w", err)
	}
	pl, err := run.NewPlan(s)
	if err != nil {
		return nil, rep, err
	}
	rep.Findings = append(rep.Findings, analyze.CheckPlan(pl)...)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Severity > rep.Findings[j].Severity
	})
	if err := rep.Err(); err != nil {
		return nil, rep, fmt.Errorf("netmpi: refusing to execute: %w", err)
	}
	return pl, rep, nil
}

// MeasureBarrier times iters wall-clock barrier executions after warmup
// untimed ones. All ranks must call it with the same arguments; the caller
// aggregates the per-rank durations.
func (p *Peer) MeasureBarrier(pl *run.Plan, warmup, iters int, deadline time.Duration) (time.Duration, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("netmpi: non-positive iteration count %d", iters)
	}
	tag := 0
	next := func() int {
		tag++
		return (tag % 2) * run.TagSpan
	}
	for i := 0; i < warmup; i++ {
		if err := p.Barrier(pl, next(), deadline); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := p.Barrier(pl, next(), deadline); err != nil {
			return 0, err
		}
	}
	return time.Duration(int64(time.Since(start)) / int64(iters)), nil
}
