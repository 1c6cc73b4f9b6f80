package mpi

// Mailbox tests: the per-sender, head-indexed FIFO mailbox must hand out
// exactly the envelopes a naive linear scan of one arrival-ordered queue
// would, and its buffers must not grow with the number of messages that
// passed through.

import (
	"math/rand"
	"testing"
)

// refMailbox is the reference semantics: one queue in arrival order, and
// a receive takes the earliest-queued envelope the selector accepts.
type refMailbox struct {
	q []*envelope
}

func (r *refMailbox) match(sel recvSel, e *envelope) bool {
	if e.ctx != sel.ctx || !sel.matchesTag(e.tag) {
		return false
	}
	if sel.src != AnySource {
		return e.src == sel.src
	}
	for _, s := range sel.srcs {
		if s == e.src {
			return true
		}
	}
	return false
}

func (r *refMailbox) take(sel recvSel, peek bool) *envelope {
	for i, e := range r.q {
		if r.match(sel, e) {
			if !peek {
				r.q = append(r.q[:i], r.q[i+1:]...)
			}
			return e
		}
	}
	return nil
}

// TestMailboxMatchesLinearScan drives random interleavings of puts over
// several contexts, senders and tags (internal negative ones included)
// against directed, AnyTag and AnySource receives, blocking and not,
// peeking and not, and requires the mailbox to return the very envelope
// the reference returns every time.
func TestMailboxMatchesLinearScan(t *testing.T) {
	const senders = 5
	ctxs := []int64{0, contextStride, 3 * contextStride}
	tags := []int{0, 1, 2, -2, -5} // negative: collective-internal
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m mailbox
		m.init(senders)
		var ref refMailbox
		randSel := func() recvSel {
			sel := recvSel{ctx: ctxs[rng.Intn(len(ctxs))], tag: tags[rng.Intn(len(tags))]}
			if rng.Intn(3) == 0 {
				sel.tag = AnyTag
			}
			if rng.Intn(3) == 0 {
				sel.src = AnySource
				for s := 0; s < senders; s++ {
					if rng.Intn(4) != 0 {
						sel.srcs = append(sel.srcs, s)
					}
				}
			} else {
				sel.src = rng.Intn(senders)
			}
			return sel
		}
		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				e := &envelope{ctx: ctxs[rng.Intn(len(ctxs))], src: rng.Intn(senders), tag: tags[rng.Intn(len(tags))]}
				m.put(e)
				ref.q = append(ref.q, e)
			case k < 8:
				sel := randSel()
				peek := k == 7
				want := ref.take(sel, peek)
				got := m.tryGet(sel, peek)
				if got != want {
					t.Fatalf("seed %d op %d: tryGet(%+v, peek=%v) = %+v, want %+v", seed, op, sel, peek, got, want)
				}
			default:
				// Blocking receive or probe, issued only when a match
				// exists so the test cannot hang.
				sel := randSel()
				peek := k == 9
				want := ref.take(sel, peek)
				if want == nil {
					continue
				}
				var got *envelope
				if peek {
					got = m.peek(sel, nil)
				} else {
					got = m.get(sel, nil)
				}
				if got != want {
					t.Fatalf("seed %d op %d: get(%+v, peek=%v) = %+v, want %+v", seed, op, sel, peek, got, want)
				}
			}
		}
		// Drain what is left through AnySource/AnyTag per context: the
		// remainder must come out in arrival order.
		all := make([]int, senders)
		for s := range all {
			all[s] = s
		}
		for _, ctx := range ctxs {
			for _, tag := range []int{AnyTag, -2, -5} {
				sel := recvSel{ctx: ctx, src: AnySource, tag: tag, srcs: all}
				for {
					want := ref.take(sel, false)
					got := m.tryGet(sel, false)
					if got != want {
						t.Fatalf("seed %d drain ctx %d tag %d: got %+v, want %+v", seed, ctx, tag, got, want)
					}
					if got == nil {
						break
					}
				}
			}
		}
		if len(ref.q) != 0 {
			t.Fatalf("seed %d: reference kept %d envelopes after the drain", seed, len(ref.q))
		}
	}
}

// TestMailboxBacklogCompacts queues a 1024-deep backlog from one sender
// and drains it; the bucket must end empty with its head reset and its
// buffer no larger than the backlog needed. A sliding window that keeps
// 1024 messages queued while 64k pass through must not grow the buffer
// either, which it would if the consumed prefix were never reclaimed.
func TestMailboxBacklogCompacts(t *testing.T) {
	const depth = 1024
	var m mailbox
	m.init(2)
	sel := recvSel{ctx: 0, src: 1, tag: 7}
	put := func() { m.put(&envelope{ctx: 0, src: 1, tag: 7}) }
	bucket := func() *fifo { return m.find(0, 1) }

	for i := 0; i < depth; i++ {
		put()
	}
	for i := 0; i < depth; i++ {
		if m.tryGet(sel, false) == nil {
			t.Fatalf("message %d of the backlog missing", i)
		}
	}
	f := bucket()
	if f.len() != 0 || f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained bucket: len %d head %d buf %d, want all zero", f.len(), f.head, len(f.buf))
	}
	if c := cap(f.buf); c > 2*depth {
		t.Fatalf("drained bucket keeps cap %d, want <= %d", c, 2*depth)
	}

	for i := 0; i < depth; i++ {
		put()
	}
	for i := 0; i < 64*depth; i++ {
		put()
		if m.tryGet(sel, false) == nil {
			t.Fatalf("sliding window: message %d missing", i)
		}
		if f := bucket(); cap(f.buf) > 4*depth {
			t.Fatalf("sliding window: buffer grew to cap %d after %d messages (head %d)", cap(f.buf), i, f.head)
		}
	}
	if f := bucket(); f.len() != depth {
		t.Fatalf("sliding window left %d queued, want %d", f.len(), depth)
	}
}

// TestMailboxReusesDrainedContextBucket: a sender that moves through many
// contexts, one at a time, keeps a single bucket instead of one per
// context it ever used.
func TestMailboxReusesDrainedContextBucket(t *testing.T) {
	var m mailbox
	m.init(1)
	for c := int64(0); c < 100; c++ {
		ctx := c * contextStride
		m.put(&envelope{ctx: ctx, src: 0, tag: 0})
		if m.tryGet(recvSel{ctx: ctx, src: 0, tag: 0}, false) == nil {
			t.Fatalf("context %d: message missing", ctx)
		}
	}
	if n := len(m.bySrc[0]); n != 1 {
		t.Fatalf("sender holds %d buckets after 100 one-at-a-time contexts, want 1", n)
	}
}
