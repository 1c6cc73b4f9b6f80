package mpi

import (
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Wildcards for Recv and Probe, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// envelope is one in-flight message.
type envelope struct {
	ctx    int64 // communicator context id
	src    int   // world rank of the sender
	tag    int
	data   []byte
	arrive vclock.Time // virtual time the last byte reaches the receiver
	seq    int64       // per-sender sequence, for deterministic tie-breaks
	order  int64       // mailbox enqueue order; earliest queued wins wildcards
	pbuf   *poolBuf    // non-nil when data is pool-backed (copy-on-retain)
}

// recvSel describes what a receive or probe accepts: one context, a
// single source (world rank) or a candidate set, and a tag or AnyTag.
type recvSel struct {
	ctx  int64
	src  int   // world rank, or AnySource
	tag  int   // or AnyTag
	srcs []int // candidate world ranks when src == AnySource
}

// matchesTag reports whether the selector accepts a message tag. AnyTag
// matches every application tag but never an internal (negative) one:
// the collective machinery owns the negative tag space, and the progress
// engine matches posted wildcard receives eagerly, so a wildcard that
// accepted internal tags could steal a collective's message.
func (s recvSel) matchesTag(tag int) bool {
	if s.tag == AnyTag {
		return tag >= 0
	}
	return tag == s.tag
}

// fifo is a head-indexed envelope queue: the live entries are
// buf[head:]. Taking the oldest entry advances head instead of shifting
// the backlog, and the dead prefix is reclaimed by one copy once head
// passes half the buffer, so draining a backlog of n costs O(n) in total
// and the buffer stays within a small multiple of the deepest backlog.
type fifo struct {
	buf  []*envelope
	head int
}

func (f *fifo) len() int { return len(f.buf) - f.head }

// at returns the i'th oldest live entry.
func (f *fifo) at(i int) *envelope { return f.buf[f.head+i] }

func (f *fifo) push(e *envelope) { f.buf = append(f.buf, e) }

// remove takes out the i'th oldest live entry. The entries ahead of it
// shift back by one slot, so removing the oldest (the common case) moves
// nothing.
func (f *fifo) remove(i int) *envelope {
	a := f.head + i
	e := f.buf[a]
	copy(f.buf[f.head+1:a+1], f.buf[f.head:a])
	f.buf[f.head] = nil
	f.head++
	switch {
	case f.head == len(f.buf):
		f.buf, f.head = f.buf[:0], 0
	case 2*f.head > len(f.buf):
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	return e
}

// ctxFifo is the queue of one (communicator context, sender) pair.
type ctxFifo struct {
	ctx int64
	fifo
}

// mailbox holds the messages addressed to one process that no receive has
// consumed yet. Buckets are indexed by sender world rank, each a short
// list of per-context FIFOs, so a directed receive inspects one FIFO
// without hashing and an AnySource receive compares only the oldest match
// of each candidate sender. put/get form the only cross-goroutine
// interaction in the simulation.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	bySrc  [][]ctxFifo // sender world rank -> that sender's per-context FIFOs
	closed bool
	kind   FailureKind // why the owner failed, for error reporting
	owner  int         // world rank, for failure reporting
	enq    int64       // monotone enqueue counter; stamps envelope.order

	// maxSeq, when non-nil, records the highest sender sequence consumed
	// per source: the duplicate-suppression window of the reliable
	// delivery path. Per-sender sequences arrive monotonically (in-process
	// delivery is synchronous with the send, the TCP transport is FIFO per
	// connection), so a frame whose sequence does not advance the high
	// mark is a duplicate injected on the wire. Enabled only when a link
	// filter is installed; without one sequences always advance and the
	// map would never fire.
	maxSeq map[int]int64
}

// init prepares the mailbox for senders with world ranks in [0, senders).
func (m *mailbox) init(senders int) {
	m.cond = sync.NewCond(&m.mu)
	m.bySrc = make([][]ctxFifo, senders)
}

// enableDedupe arms duplicate suppression; called before Run when a link
// filter (which may duplicate frames) is installed.
func (m *mailbox) enableDedupe() {
	m.mu.Lock()
	if m.maxSeq == nil {
		m.maxSeq = make(map[int]int64)
	}
	m.mu.Unlock()
}

// find returns the FIFO of (ctx, src), or nil if src never queued on ctx.
// Called with m.mu held.
func (m *mailbox) find(ctx int64, src int) *fifo {
	qs := m.bySrc[src]
	for i := range qs {
		if qs[i].ctx == ctx {
			return &qs[i].fifo
		}
	}
	return nil
}

// bucket returns the FIFO of (ctx, src) for an enqueue, creating it on
// first use. An empty FIFO of a context the sender has moved on from is
// taken over, buffer included, so the per-sender list stays as short as
// the number of contexts with messages queued at once. Called with m.mu
// held.
func (m *mailbox) bucket(ctx int64, src int) *fifo {
	qs := m.bySrc[src]
	spare := -1
	for i := range qs {
		if qs[i].ctx == ctx {
			return &qs[i].fifo
		}
		if spare < 0 && qs[i].len() == 0 {
			spare = i
		}
	}
	if spare >= 0 {
		qs[spare].ctx = ctx
		return &qs[spare].fifo
	}
	m.bySrc[src] = append(qs, ctxFifo{ctx: ctx})
	return &m.bySrc[src][len(qs)].fifo
}

func (m *mailbox) put(e *envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		releaseEnvelope(e) // message to a failed process disappears
		return
	}
	if m.maxSeq != nil && e.seq > 0 {
		if last, ok := m.maxSeq[e.src]; ok && e.seq <= last {
			m.mu.Unlock()
			releaseEnvelope(e) // duplicate frame suppressed
			return
		}
		m.maxSeq[e.src] = e.seq
	}
	e.order = m.enq
	m.enq++
	m.bucket(e.ctx, e.src).push(e)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// firstMatch returns the position of the oldest entry of f the selector's
// tag accepts, or -1.
func firstMatch(f *fifo, sel recvSel) int {
	if f == nil {
		return -1
	}
	for i, n := 0, f.len(); i < n; i++ {
		if sel.matchesTag(f.at(i).tag) {
			return i
		}
	}
	return -1
}

// locate returns the FIFO and position of the earliest-queued envelope
// the selector accepts. FIFOs are in arrival order, so within one FIFO the
// first tag match is the earliest; across senders the enqueue order
// decides (earliest queued wins, so per-sender delivery stays
// non-overtaking). Called with m.mu held.
func (m *mailbox) locate(sel recvSel) (*fifo, int, bool) {
	if sel.src != AnySource {
		f := m.find(sel.ctx, sel.src)
		i := firstMatch(f, sel)
		return f, i, i >= 0
	}
	var best *fifo
	bestI := -1
	var bestOrder int64
	for _, src := range sel.srcs {
		f := m.find(sel.ctx, src)
		if i := firstMatch(f, sel); i >= 0 {
			if o := f.at(i).order; bestI < 0 || o < bestOrder {
				best, bestI, bestOrder = f, i, o
			}
		}
	}
	return best, bestI, bestI >= 0
}

// get blocks until a message matching the selector is present, removes it
// from its queue and returns it. Among simultaneously queued matches the
// earliest queued wins, which preserves per-sender FIFO (non-overtaking).
// giveUp is re-checked whenever the mailbox wakes (failure and revocation
// notifications broadcast to all mailboxes); a non-nil return panics with
// that error.
func (m *mailbox) get(sel recvSel, giveUp func() error) *envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if f, i, ok := m.locate(sel); ok {
			return f.remove(i)
		}
		if m.closed {
			panic(&ProcessFailedError{Rank: m.owner, Kind: m.kind})
		}
		if giveUp != nil {
			if err := giveUp(); err != nil {
				panic(err)
			}
		}
		m.cond.Wait()
	}
}

// notify wakes all waiters so they can re-evaluate giveUp conditions.
func (m *mailbox) notify() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// peek blocks until a matching message is present and returns it without
// removing it from the queue.
func (m *mailbox) peek(sel recvSel, giveUp func() error) *envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if f, i, ok := m.locate(sel); ok {
			return f.at(i)
		}
		if m.closed {
			panic(&ProcessFailedError{Rank: m.owner, Kind: m.kind})
		}
		if giveUp != nil {
			if err := giveUp(); err != nil {
				panic(err)
			}
		}
		m.cond.Wait()
	}
}

// tryGet is the non-blocking variant of get; peek leaves the message queued.
func (m *mailbox) tryGet(sel recvSel, peek bool) *envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, i, ok := m.locate(sel)
	if !ok {
		return nil
	}
	if peek {
		return f.at(i)
	}
	return f.remove(i)
}

// seqSnapshot returns the current enqueue count: the wait loops of the
// progress engine snapshot it before a matching attempt, so an arrival
// racing the attempt is never slept through (see awaitArrival).
func (m *mailbox) seqSnapshot() int64 {
	m.mu.Lock()
	n := m.enq
	m.mu.Unlock()
	return n
}

// awaitArrival blocks until the enqueue counter moves past seen — some
// message, not necessarily a matching one, arrived after the snapshot was
// taken — or the owner fails, or giveUp reports an error. Like get,
// failure surfaces by panic; the caller re-runs its matching attempt on
// return. Wakeups without an enqueue (failure notifications broadcast to
// all mailboxes) re-check the abort conditions and sleep again.
func (m *mailbox) awaitArrival(seen int64, giveUp func() error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.enq == seen {
		if m.closed {
			panic(&ProcessFailedError{Rank: m.owner, Kind: m.kind})
		}
		if giveUp != nil {
			if err := giveUp(); err != nil {
				panic(err)
			}
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close(kind FailureKind) {
	m.mu.Lock()
	m.closed = true
	m.kind = kind
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Status describes a received or probed message.
type Status struct {
	Source int // rank of the sender within the communicator
	Tag    int
	Bytes  int
}

// checkRank panics if rank is not a valid comm rank.
func (c *Comm) checkRank(op string, rank int) {
	if rank < 0 || rank >= len(c.s.members) {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, rank, len(c.s.members)))
	}
}

// sendCommon computes the timing of a transfer anchored at the process
// clock, advances the clock by the sender-side overhead and enqueues the
// envelope. It returns the virtual time at which the sender's interface
// finishes the transfer. When copyBuf is false the caller cedes ownership
// of data.
func (c *Comm) sendCommon(dst, tag int, data []byte, copyBuf bool) vclock.Time {
	c.p.progress()
	end, _ := c.sendCore(dst, tag, data, copyBuf, c.p.clock.Now(), &c.p.clock)
	return end
}

// sendCore computes the timing of a transfer anchored at start — which
// need not be the process clock: nonblocking collective schedules anchor
// steps at their own virtual cursor — and enqueues the envelope. It
// returns the time the sender's interface finishes the transfer and the
// time the sender-side CPU is released (start plus the link overhead).
// When clk is non-nil it is advanced by the overhead exactly where the
// blocking path always did, so blocking timing is preserved bit for bit;
// schedule steps pass nil and account on their cursor instead.
func (c *Comm) sendCore(dst, tag int, data []byte, copyBuf bool, start vclock.Time, clk *vclock.Clock) (end, cpuFree vclock.Time) {
	c.checkRank("Send", dst)
	p := c.p
	p.opTick()
	dstW := c.s.members[dst]
	if p.world.ctxRevoked(c.s.id) {
		panic(&RevokedError{Ctx: c.s.id})
	}
	if p.world.IsFailed(dstW) {
		panic(p.world.failedError(dstW))
	}
	link := p.world.cluster.Link(p.machine, p.world.place[dstW])
	if clk != nil {
		clk.Advance(vclock.Time(link.Overhead))
		cpuFree = clk.Now()
	} else {
		cpuFree = start + vclock.Time(link.Overhead)
	}
	_, end = p.nicOut.Reserve(cpuFree, vclock.Time(link.TransferTime(len(data))))
	buf := data
	// Buffered send: the sender may reuse data as soon as the call
	// returns. The wire transport serialises the payload into a frame
	// before deliver returns, so the defensive copy is needed only on the
	// in-process path (and for wire self-delivery, which has no wire).
	if copyBuf && (!p.world.wireTransport || dstW == p.rank) {
		buf = append([]byte(nil), data...)
	}
	p.reqSeq++
	env := getEnv()
	env.ctx = c.s.id
	env.src = p.rank
	env.tag = tag
	env.data = buf
	env.arrive = end + vclock.Time(link.Latency)
	env.seq = p.reqSeq
	p.stats.BytesSent += int64(len(data))
	p.stats.MsgsSent++
	if r := p.world.rec; r != nil {
		wall := r.NowNS()
		r.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindSend, Peer: int32(dstW),
			Tag: int32(tag), Ctx: c.s.id, Bytes: int64(len(data)),
			Start: start, End: end, WallStart: wall, WallEnd: wall,
		})
	}
	if p.world.linkFilter != nil && dstW != p.rank {
		// Chaos-adjudicated path: the frame may be delayed, duplicated or
		// dropped (and then retransmitted) before it reaches the wire.
		p.transmitFiltered(dstW, env, link, end)
		return end, cpuFree
	}
	p.world.deliver(dstW, env)
	return end, cpuFree
}

// Send performs a blocking standard-mode send of data to the process with
// communicator rank dst. The send buffers internally, so Send never waits
// for a matching receive; the sender's clock advances by the message
// overhead plus its interface's serialisation of the transfer.
func (c *Comm) Send(dst, tag int, data []byte) {
	end := c.sendCommon(dst, tag, data, true)
	c.p.clock.AbsorbAtLeast(end)
}

// SendOwned is Send without the defensive copy: the caller cedes ownership
// of data and must not modify it afterwards. Use it on hot paths that send
// many freshly built (or immutable) buffers.
func (c *Comm) SendOwned(dst, tag int, data []byte) {
	end := c.sendCommon(dst, tag, data, false)
	c.p.clock.AbsorbAtLeast(end)
}

// sel builds the mailbox selector for a receive or probe on this
// communicator. AnySource receives accept any current member as sender.
func (c *Comm) sel(src, tag int) recvSel {
	if src == AnySource {
		return recvSel{ctx: c.s.id, src: AnySource, tag: tag, srcs: c.s.members}
	}
	c.checkRank("Recv", src)
	return recvSel{ctx: c.s.id, src: c.s.members[src], tag: tag}
}

// failWatch returns the give-up predicate for a receive from src: if the
// awaited sender fails while we are blocked — or the communicator is
// revoked — the receive aborts with an error instead of hanging. AnySource
// receives cannot name a single awaited sender; they abort only when every
// other member of the communicator has failed.
func (c *Comm) failWatch(src int) func() error {
	w := c.p.world
	id := c.s.id
	if src == AnySource {
		members := c.s.members
		me := c.p.rank
		return func() error {
			if w.ctxRevoked(id) {
				return &RevokedError{Ctx: id}
			}
			failed := -1
			for _, r := range members {
				if r == me {
					continue
				}
				if !w.IsFailed(r) {
					return nil
				}
				failed = r
			}
			if failed < 0 {
				return nil
			}
			return w.failedError(failed)
		}
	}
	srcW := c.s.members[src]
	return func() error {
		if w.ctxRevoked(id) {
			return &RevokedError{Ctx: id}
		}
		if w.IsFailed(srcW) {
			return w.failedError(srcW)
		}
		return nil
	}
}

// collWatch is the give-up predicate for collective operations: a
// collective over a communicator cannot complete once any member has
// failed (the communication tree is broken somewhere), so it aborts as
// soon as any member is failed or the communicator is revoked — not just
// the direct peer, which is what keeps survivors that were waiting on
// still-alive neighbours from hanging.
func (c *Comm) collWatch() func() error {
	w := c.p.world
	id := c.s.id
	members := c.s.members
	me := c.p.rank
	return func() error {
		if w.ctxRevoked(id) {
			return &RevokedError{Ctx: id}
		}
		for _, r := range members {
			if r != me && w.IsFailed(r) {
				return w.failedError(r)
			}
		}
		return nil
	}
}

// collCheck aborts a collective at entry if a member is already failed or
// the communicator is revoked, so every survivor reports the failure even
// when its own part of the communication tree would not have touched the
// failed process.
func (c *Comm) collCheck() {
	if err := c.collWatch()(); err != nil {
		panic(err)
	}
}

// collRecv is the failure-aware receive used inside collectives. The
// returned payload is retained by the caller.
func (c *Comm) collRecv(src, tag int) []byte {
	t0 := c.p.clock.Now()
	e := c.mboxGet("coll", c.sel(src, tag), c.collWatch())
	data, _ := c.consume(e, t0)
	return data
}

// collGetAny blocks for a message carrying tag from any of the given
// world ranks and returns the raw envelope WITHOUT applying receive
// timing. Collective root drains use it to take messages as they arrive
// and fold the timing in rank order afterwards, so one slow child does
// not serialise the drain while simulated times stay deterministic.
func (c *Comm) collGetAny(srcs []int, tag int) *envelope {
	return c.mboxGet("coll", recvSel{ctx: c.s.id, src: AnySource, tag: tag, srcs: srcs}, c.collWatch())
}

// collReduceRecv receives from src and folds the payload into acc with
// op, without retaining the received buffer: the low-allocation reduction
// path. opName appears in the length-mismatch panic.
func (c *Comm) collReduceRecv(src, tag int, acc []byte, op Op, opName string) {
	t0 := c.p.clock.Now()
	e := c.mboxGet("coll", c.sel(src, tag), c.collWatch())
	c.consumeWith(e, t0, func(in []byte) {
		reduceLenCheck(opName, len(in), len(acc))
		op(acc, in)
	})
}

// collSendrecv is the failure-aware combined send/receive used inside
// collectives.
func (c *Comm) collSendrecv(dst, sendTag int, data []byte, src, recvTag int) []byte {
	sreq := c.Isend(dst, sendTag, data)
	buf := c.collRecv(src, recvTag)
	sreq.Wait()
	return buf
}

// collSendrecvReduce sends out to dst and folds the message received from
// src into acc, recycling the received buffer. out may alias acc: the
// outgoing payload is captured before the reduction runs.
func (c *Comm) collSendrecvReduce(dst, sendTag int, out []byte, src, recvTag int, acc []byte, op Op, opName string) {
	sreq := c.Isend(dst, sendTag, out)
	c.collReduceRecv(src, recvTag, acc, op, opName)
	sreq.Wait()
}

// finishRecvTiming applies timing and statistics for a consumed envelope.
// t0 is the virtual time the receive was posted, used for tracing the
// waiting interval.
func (c *Comm) finishRecvTiming(e *envelope, t0 vclock.Time) Status {
	p := c.p
	p.opTick()
	link := p.world.cluster.Link(p.world.place[e.src], p.machine)
	p.clock.AbsorbAtLeast(e.arrive)
	p.clock.Advance(vclock.Time(link.Overhead))
	p.stats.BytesRecv += int64(len(e.data))
	p.stats.MsgsRecv++
	if r := p.world.rec; r != nil {
		wall := r.NowNS()
		var anySrc int64
		if p.lastRecvAnySrc {
			anySrc = 1
		}
		r.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindRecv, Peer: int32(e.src),
			Tag: int32(e.tag), Ctx: e.ctx, Bytes: int64(len(e.data)),
			Start: t0, End: p.clock.Now(), WallStart: wall, WallEnd: wall,
			A1: anySrc,
		})
	}
	return Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// consume applies receive timing for e and transfers its payload to the
// caller. Pool-backed payloads are copied out and recycled
// (copy-on-retain); everything else is handed over as-is. The envelope is
// recycled and must not be touched afterwards.
func (c *Comm) consume(e *envelope, t0 vclock.Time) ([]byte, Status) {
	st := c.finishRecvTiming(e, t0)
	data := e.data
	if e.pbuf != nil {
		data = append([]byte(nil), e.data...)
	}
	e.data = nil
	releaseEnvelope(e)
	return data, st
}

// consumeWith applies receive timing for e, hands the payload to fn for
// in-place use, then recycles payload and envelope without copying: the
// scratch path for consumers that fold the payload into an accumulator
// and do not retain it. fn must not keep a reference to its argument.
func (c *Comm) consumeWith(e *envelope, t0 vclock.Time, fn func(in []byte)) Status {
	st := c.finishRecvTiming(e, t0)
	fn(e.data)
	e.data = nil
	releaseEnvelope(e)
	return st
}

// Recv blocks until a message from src with the given tag arrives (src may
// be AnySource and tag AnyTag) and returns its payload. Messages between
// one sender/receiver pair are non-overtaking. When an earlier-posted
// Irecv could match the same envelopes the receive routes through the
// progress engine, so posting order — not wakeup order — decides which
// operation gets which message.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	p := c.p
	s := c.sel(src, tag)
	if p.eng.overlaps(c.s.id, s) {
		return c.recvViaEngine(s, src == AnySource)
	}
	t0 := p.clock.Now()
	p.progress()
	e := c.mboxGet("recv", s, c.failWatch(src))
	return c.consume(e, t0)
}

// Probe blocks until a matching message is available without receiving it.
func (c *Comm) Probe(src, tag int) Status {
	c.p.progress()
	e := c.p.mbox.peek(c.sel(src, tag), c.failWatch(src))
	return Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	c.p.progress()
	e := c.p.mbox.tryGet(c.sel(src, tag), true)
	if e == nil {
		return false, Status{}
	}
	return true, Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Sendrecv sends to dst and receives from src in one combined operation,
// overlapping the two transfers as MPI_Sendrecv does.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status) {
	sreq := c.Isend(dst, sendTag, data)
	buf, st := c.Recv(src, recvTag) //hmpivet:ignore tagconst -- forwarding the caller's two tags is the operation itself
	sreq.Wait()
	return buf, st
}
