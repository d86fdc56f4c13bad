// Package vclock is a deterministic virtual-time kernel for goroutine
// logical processes. Processes run one at a time under a cooperative
// scheduler with no goroutine of its own: the process that blocks (Sleep,
// Recv) picks the next runnable process in id order — advancing the
// virtual clock to the next timer or delivery when none is — and resumes
// it directly, or carries on when it is itself the next. Runs are bit-for-
// bit reproducible: no wall-clock time or goroutine scheduling
// nondeterminism can leak into results.
//
// The kernel provides timed message delivery (Post) and a per-process
// mailbox with deadline-bounded receive, which is exactly what the live
// runtime's virtual world (internal/live) builds its actors on.
package vclock

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// procState enumerates the lifecycle of a logical process.
type procState int

const (
	ready procState = iota
	running
	sleeping  // wake at wakeAt
	receiving // waiting for mail, optionally with deadline wakeAt
	done
)

// Message is one mailbox entry.
type Message struct {
	Payload any

	deliverAt float64
	seq       int
}

// Proc is the handle a logical process uses to interact with virtual
// time. It is only valid inside the function passed to Spawn.
type Proc struct {
	c    *Cluster
	id   int
	name string

	state   procState
	wakeAt  float64
	mailbox []Message // mailbox[head:] is unread
	head    int
	resume  chan struct{} // the baton; closed by fail to release a parked process
}

// ID returns the process identifier (its spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the process's label.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.c.now }

// Sleep blocks the process for d units of virtual time. Negative
// durations panic; zero yields without advancing time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative sleep %v", d))
	}
	p.state = sleeping
	p.wakeAt = p.c.now + d
	p.yield()
}

// Post schedules a message for delivery into the process dst's mailbox
// after delay units of virtual time. It never blocks the caller.
//
// A message due at the current instant (delay 0) is delivered
// synchronously: by the time any process runs at time t, the kernel has
// already flushed every heap message with deliverAt <= t, so appending
// directly preserves the (deliverAt, seq) delivery order while making the
// message visible to same-instant polls. The live runtime's master
// (internal/live) depends on this to drain every completion posted at the
// current instant before consulting its scheduler, matching the
// discrete-event engine's drain-then-consult event ordering.
func (p *Proc) Post(dst int, msg Message, delay float64) {
	if delay < 0 {
		panic(fmt.Sprintf("vclock: negative delivery delay %v", delay))
	}
	msg.deliverAt = p.c.now + delay
	msg.seq = p.c.seq
	p.c.seq++
	if msg.deliverAt <= p.c.now {
		p.c.procs[dst].deliver(msg)
		return
	}
	p.c.mail.push(msg2dst{msg: msg, dst: dst})
}

// deliver puts msg in p's mailbox and makes p runnable if it waits for
// mail. The mailbox is head-indexed: a pop clears its slot and a drained
// mailbox rewinds; one that never drains (a slave the port outruns)
// slides its unread mail down once most of the array is read, so append
// neither regrows behind the head nor keeps what was consumed.
func (p *Proc) deliver(msg Message) {
	if n := len(p.mailbox); n == cap(p.mailbox) && p.head > n/2 {
		clear(p.mailbox[copy(p.mailbox, p.mailbox[p.head:]):])
		p.mailbox, p.head = p.mailbox[:n-p.head], 0
	}
	p.mailbox = append(p.mailbox, msg)
	if p.state == receiving {
		p.state = ready
	}
}

// Recv blocks until a message is available and returns the oldest one
// (by delivery time, then posting order).
func (p *Proc) Recv() Message {
	msg, ok := p.RecvDeadline(math.Inf(1))
	if !ok {
		panic("vclock: Recv returned without a message") // unreachable
	}
	return msg
}

// RecvDeadline blocks until a message is available or the virtual clock
// reaches the deadline, whichever comes first. It reports whether a
// message was received. A deadline at or before now polls the mailbox.
func (p *Proc) RecvDeadline(deadline float64) (Message, bool) {
	for {
		if p.head < len(p.mailbox) {
			msg := p.mailbox[p.head]
			p.mailbox[p.head] = Message{}
			if p.head++; p.head == len(p.mailbox) {
				p.mailbox, p.head = p.mailbox[:0], 0
			}
			return msg, true
		}
		if deadline <= p.c.now {
			return Message{}, false
		}
		p.state = receiving
		p.wakeAt = deadline
		p.yield()
		if len(p.mailbox) == 0 && p.c.now >= deadline {
			return Message{}, false
		}
	}
}

// yield blocks p until it is next in the resume order: it hands the baton
// to whichever process is and parks — unless that is p itself.
func (p *Proc) yield() {
	q := p.c.next()
	if q == p {
		return
	}
	if q != nil {
		q.resume <- struct{}{}
	}
	if _, ok := <-p.resume; !ok {
		runtime.Goexit() // released by fail: here (deadlock) or elsewhere
	}
}

// msg2dst pairs a message with its destination for the delivery heap.
type msg2dst struct {
	msg Message
	dst int
}

// mailHeap is a binary min-heap of pending deliveries ordered by
// (deliverAt, seq). seq is unique, so the order is strict and the pop
// sequence is fully determined. It is hand-rolled on the concrete element
// type: container/heap would box every message into an interface on
// push and again on pop.
type mailHeap []msg2dst

func (h mailHeap) less(i, j int) bool {
	if h[i].msg.deliverAt != h[j].msg.deliverAt {
		return h[i].msg.deliverAt < h[j].msg.deliverAt
	}
	return h[i].msg.seq < h[j].msg.seq
}

func (h *mailHeap) push(m msg2dst) {
	*h = append(*h, m)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the earliest delivery. The heap must not be
// empty.
func (h *mailHeap) pop() msg2dst {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = msg2dst{} // drop the payload reference
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Cluster is a set of logical processes sharing one virtual clock. Its
// state belongs to whoever holds the baton: the one running process.
type Cluster struct {
	now     float64
	procs   []*Proc
	cursor  int // where the id-order sweep continues
	mail    mailHeap
	seq     int
	started bool
	err     error // why the run failed: set by fail, before it releases anyone
	wg      sync.WaitGroup
}

// New creates an empty cluster at time 0.
func New() *Cluster { return &Cluster{} }

// Now returns the current virtual time.
func (c *Cluster) Now() float64 { return c.now }

// Spawn registers a logical process. All processes must be spawned before
// Run is called. The returned id addresses the process in Post.
func (c *Cluster) Spawn(name string, fn func(p *Proc)) int {
	if c.started {
		panic("vclock: Spawn after Run")
	}
	p := &Proc{
		c:      c,
		id:     len(c.procs),
		name:   name,
		state:  ready,
		resume: make(chan struct{}),
	}
	c.procs = append(c.procs, p)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if _, ok := <-p.resume; !ok {
			return
		}
		defer func() {
			r := recover()
			if c.err != nil {
				return // released (Goexit in yield): unwinding, not finishing
			}
			if r != nil {
				c.fail(fmt.Errorf("vclock: process %q panicked: %v", p.name, r))
				return
			}
			p.state = done
			if q := c.next(); q != nil {
				q.resume <- struct{}{}
			}
		}()
		fn(p)
	}()
	return p.id
}

// Run drives the cluster until every process finishes. It returns an
// error if a process panicked or if the system deadlocks (processes
// blocked forever with no pending timers or messages); either way every
// process goroutine has exited by the time it returns.
func (c *Cluster) Run() error {
	c.started = true
	if q := c.next(); q != nil {
		q.resume <- struct{}{}
	}
	c.wg.Wait()
	return c.err
}

// fail ends the run with an error and releases every process still
// parked: its resume channel closes and it leaves through runtime.Goexit,
// running its deferred calls (which must not block on the Proc again), so
// no goroutine outlives Run.
func (c *Cluster) fail(err error) {
	c.err = err
	for _, p := range c.procs {
		if p.state != done {
			close(p.resume)
		}
	}
}

// next is the scheduling step: it returns the process to resume, or nil
// when the run is over. Ready processes are resumed in cyclic id
// order from the cursor — a sweep over the ids, repeated while it makes
// progress — and every clock advance restarts the sweep at id 0, so same-
// instant wakers run in spawn order: internal/live's determinism rests on it.
func (c *Cluster) next() *Proc {
	for {
		for range c.procs {
			if c.cursor == len(c.procs) {
				c.cursor = 0
			}
			p := c.procs[c.cursor]
			if c.cursor++; p.state == ready {
				p.state = running
				return p
			}
		}

		// Nothing runnable: advance the clock to the next timer or
		// delivery.
		next := math.Inf(1)
		for _, p := range c.procs {
			if p.state == sleeping || p.state == receiving {
				if p.wakeAt < next {
					next = p.wakeAt
				}
			}
		}
		if len(c.mail) > 0 && c.mail[0].msg.deliverAt < next {
			next = c.mail[0].msg.deliverAt
		}
		if math.IsInf(next, 1) {
			if remaining := c.blockedNames(); len(remaining) > 0 {
				c.fail(fmt.Errorf("vclock: deadlock at t=%v, blocked: %v", c.now, remaining))
			}
			return nil // all done, or deadlocked
		}
		if next < c.now {
			next = c.now
		}
		c.now = next
		c.cursor = 0

		// Deliver all mail due now; wake receivers.
		for len(c.mail) > 0 && c.mail[0].msg.deliverAt <= c.now {
			d := c.mail.pop()
			c.procs[d.dst].deliver(d.msg)
		}
		// Wake expired sleepers and receive deadlines.
		for _, p := range c.procs {
			if (p.state == sleeping || p.state == receiving) && p.wakeAt <= c.now {
				p.state = ready
			}
		}
	}
}

func (c *Cluster) blockedNames() []string {
	var names []string
	for _, p := range c.procs {
		if p.state != done {
			names = append(names, fmt.Sprintf("%s(%d) state=%d wakeAt=%v mailbox=%d",
				p.name, p.id, p.state, p.wakeAt, len(p.mailbox)-p.head))
		}
	}
	sort.Strings(names)
	return names
}
