// Package vclock is a deterministic virtual-time kernel for goroutine
// logical processes. Processes run one at a time under a cooperative
// scheduler: when the running process blocks (Sleep, Recv) control
// returns to the kernel, which resumes the next runnable process, and —
// when none is runnable — advances the virtual clock to the next timer or
// message delivery. Runs are bit-for-bit reproducible: no wall-clock time
// or goroutine scheduling nondeterminism can leak into results.
//
// The kernel provides timed message delivery (Post) and a per-process
// mailbox with deadline-bounded receive, which is exactly what the live
// runtime's virtual world (internal/live) builds its actors on.
package vclock

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
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
	mailbox []Message
	resume  chan struct{}
	err     error
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
		d := p.c.procs[dst]
		d.mailbox = append(d.mailbox, msg)
		if d.state == receiving {
			d.state = ready
		}
		return
	}
	heap.Push(&p.c.mail, msg2dst{msg: msg, dst: dst})
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
		if len(p.mailbox) > 0 {
			msg := p.mailbox[0]
			p.mailbox = p.mailbox[1:]
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

// yield hands control back to the kernel until the process is resumed.
func (p *Proc) yield() {
	p.c.yielded <- p
	<-p.resume
}

// msg2dst pairs a message with its destination for the delivery heap.
type msg2dst struct {
	msg Message
	dst int
}

type mailHeap []msg2dst

func (h mailHeap) Len() int { return len(h) }
func (h mailHeap) Less(i, j int) bool {
	if h[i].msg.deliverAt != h[j].msg.deliverAt {
		return h[i].msg.deliverAt < h[j].msg.deliverAt
	}
	return h[i].msg.seq < h[j].msg.seq
}
func (h mailHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mailHeap) Push(x any)   { *h = append(*h, x.(msg2dst)) }
func (h *mailHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Cluster is a set of logical processes sharing one virtual clock.
type Cluster struct {
	now     float64
	procs   []*Proc
	mail    mailHeap
	seq     int
	yielded chan *Proc
	started bool
}

// New creates an empty cluster at time 0.
func New() *Cluster {
	return &Cluster{yielded: make(chan *Proc)}
}

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
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("vclock: process %q panicked: %v", p.name, r)
			}
			p.state = done
			c.yielded <- p
		}()
		fn(p)
	}()
	return p.id
}

// Run drives the cluster until every process finishes. It returns an
// error if a process panicked or if the system deadlocks (processes
// blocked forever with no pending timers or messages).
func (c *Cluster) Run() error {
	c.started = true
	for {
		// Resume every ready process, one at a time, in id order.
		progress := true
		for progress {
			progress = false
			for _, p := range c.procs {
				if p.state != ready {
					continue
				}
				p.state = running
				p.resume <- struct{}{}
				<-c.yielded
				if p.err != nil {
					return p.err
				}
				progress = true
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
			remaining := c.blockedNames()
			if len(remaining) == 0 {
				return nil // all done
			}
			return fmt.Errorf("vclock: deadlock at t=%v, blocked: %v", c.now, remaining)
		}
		if next < c.now {
			next = c.now
		}
		c.now = next

		// Deliver all mail due now; wake receivers.
		for len(c.mail) > 0 && c.mail[0].msg.deliverAt <= c.now {
			d := heap.Pop(&c.mail).(msg2dst)
			dst := c.procs[d.dst]
			dst.mailbox = append(dst.mailbox, d.msg)
			if dst.state == receiving {
				dst.state = ready
			}
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
				p.name, p.id, p.state, p.wakeAt, len(p.mailbox)))
		}
	}
	sort.Strings(names)
	return names
}
