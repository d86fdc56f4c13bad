package live

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// RealWorld runs live actors as goroutines on the wall clock, optionally
// scaled: at speedup k, one model second takes 1/k wall seconds, so a
// platform calibrated in paper seconds can be served (or load-tested)
// thousands of times faster than nominal while preserving every relative
// duration. Speedup 1 is real time.
type RealWorld struct {
	clock *wallClock
	nodes []*realNode
	wg    sync.WaitGroup

	mu      sync.Mutex
	started bool
	err     error
	failed  bool
}

// NewRealTime creates a wall-clock world with the given speedup (model
// seconds per wall second). Non-positive speedups mean 1.
func NewRealTime(speedup float64) *RealWorld {
	return NewRealTimeFrom(speedup, time.Now())
}

// NewRealTimeFrom is NewRealTime with an explicit model-time epoch
// (model second 0). A fleet of runtimes serving one cluster must share
// an epoch, or their model timestamps are mutually offset by the
// construction spread times the speedup and cross-shard windows (first
// submission to last completion) come out skewed.
func NewRealTimeFrom(speedup float64, start time.Time) *RealWorld {
	if speedup <= 0 {
		speedup = 1
	}
	return &RealWorld{clock: &wallClock{start: start, speedup: speedup}}
}

// Speedup returns the clock scale (model seconds per wall second).
func (w *RealWorld) Speedup() float64 { return w.clock.speedup }

// Spawn implements World.
func (w *RealWorld) Spawn(name string, fn func(n Node)) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		panic("live: Spawn after Start")
	}
	n := &realNode{w: w, name: name, fn: fn, notify: make(chan struct{}, 1)}
	w.nodes = append(w.nodes, n)
	return len(w.nodes) - 1
}

// Start implements World: every actor gets a goroutine. An actor panic
// is captured as the world error and aborts the remaining actors.
func (w *RealWorld) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.started {
		return
	}
	w.started = true
	for _, n := range w.nodes {
		n := n
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer n.closeWakeTimer()
			defer func() {
				if r := recover(); r != nil {
					w.fail(fmt.Errorf("live: actor %q panicked: %v", n.name, r))
				}
			}()
			n.fn(n)
		}()
	}
}

// Wait implements World.
func (w *RealWorld) Wait() error {
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Post implements World: external injection, delivered at the current
// instant.
func (w *RealWorld) Post(dst int, m Msg) {
	m.At = w.clock.Now()
	w.nodes[dst].deliver(m)
}

// fail records the first actor failure and aborts every node so blocked
// actors unwind instead of hanging Wait forever.
func (w *RealWorld) fail(err error) {
	w.mu.Lock()
	if w.failed {
		w.mu.Unlock()
		return
	}
	w.failed = true
	w.err = err
	nodes := w.nodes
	now := w.clock.Now()
	w.mu.Unlock()
	for _, n := range nodes {
		n.deliver(Msg{Kind: msgAbort, At: now})
	}
}

// wallClock converts between wall time and model seconds.
type wallClock struct {
	start   time.Time
	speedup float64
}

// Now returns model seconds since the world was created.
func (c *wallClock) Now() float64 {
	return time.Since(c.start).Seconds() * c.speedup
}

// wall returns the wall time d model seconds take.
func (c *wallClock) wall(d float64) time.Duration {
	return time.Duration(d / c.speedup * float64(time.Second))
}

// realNode is one goroutine actor's mailbox and clock handle.
type realNode struct {
	w    *RealWorld
	name string
	fn   func(n Node)

	mu     sync.Mutex
	queue  []Msg
	notify chan struct{} // capacity 1: wake signal for the owning actor
	// timed is set while the owner is parked in a timed receive on
	// timer; deliver then kicks it awake.
	timed bool
	timer *wakeTimer
	// opened is set once the owner has tried to open timer.
	opened bool
}

// A wakeTimer ends a real actor's timed waits on time. The netpoller
// rounds its sleep up to whole milliseconds, so a parked goroutine
// waiting on a runtime timer alone wakes up to ≈ 1 ms late; a held-P
// sleep (nanosleep) is precise but starves the other goroutines. A
// timerfd registered with the netpoller wakes an idle process's
// epoll_wait at its expiry, within the kernel's timer slack, and the
// read deadline set beside it ends the wait in a busy process, whose
// scheduler checks its timers but polls the network rarely. Each wait
// reads the file once: whichever source fires first returns it. Setting
// the read deadline fails only on a closed file, and the owner closes
// its timer after its last wait.
type wakeTimer struct {
	f *os.File
	// fd is f's descriptor, kept so that arming never calls f.Fd, which
	// would put the file in blocking mode.
	fd  uintptr
	buf [8]byte
}

// past is a read deadline that has already expired: setting it returns
// a parked read at once.
var past = time.Unix(1, 0)

// wait arms the timer for the wall instant at and reads it once. The
// caller has set the read deadline (at, or past to cut the wait short).
// If arming fails the read deadline alone ends the wait, at the
// netpoller's precision.
func (t *wakeTimer) wait(at time.Time) {
	_ = t.arm(time.Until(at))
	_, _ = t.f.Read(t.buf[:])
}

// wakeTimer returns the owner's timer, opening it on the node's first
// timed wait. It is nil when the platform has none or opening failed
// (EMFILE, a seccomp filter); the node's waits then use the runtime's
// timers.
func (n *realNode) wakeTimer() *wakeTimer {
	if !n.opened {
		n.opened = true
		n.timer, _ = openWakeTimer()
	}
	return n.timer
}

// closeWakeTimer closes the timer once the owner has returned.
func (n *realNode) closeWakeTimer() {
	n.mu.Lock()
	t := n.timer
	n.timer, n.timed = nil, false
	n.mu.Unlock()
	if t != nil {
		t.f.Close()
	}
}

// deliver appends a message and wakes the owner if it is blocked.
func (n *realNode) deliver(m Msg) {
	n.mu.Lock()
	n.queue = append(n.queue, m)
	if n.timed {
		n.timed = false
		_ = n.timer.f.SetReadDeadline(past)
	}
	n.mu.Unlock()
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// Now implements Clock.
func (n *realNode) Now() float64 { return n.w.clock.Now() }

// Sleep implements Clock.
func (n *realNode) Sleep(d float64) {
	if d <= 0 {
		return
	}
	t := n.wakeTimer()
	if t == nil {
		time.Sleep(n.w.clock.wall(d))
		return
	}
	at := time.Now().Add(n.w.clock.wall(d))
	for time.Now().Before(at) {
		_ = t.f.SetReadDeadline(at)
		t.wait(at)
	}
}

// Send implements Node: occupy the caller for the transfer, then deliver.
func (n *realNode) Send(dst int, m Msg, transfer float64) float64 {
	n.Sleep(transfer)
	m.At = n.w.clock.Now()
	n.w.nodes[dst].deliver(m)
	return m.At
}

// Post implements Node: free control message, delivered immediately.
func (n *realNode) Post(dst int, m Msg) {
	m.At = n.w.clock.Now()
	n.w.nodes[dst].deliver(m)
}

// Recv implements Node.
func (n *realNode) Recv() (Msg, bool) {
	return n.RecvDeadline(math.Inf(1))
}

// RecvDeadline implements Node. A finite wait parks on the node's timer
// with timed set. Its read deadline is set under mu, after the last look
// at the queue: a message is either delivered before that look, or its
// deliver finds timed set and moves the deadline to the past, so no mail
// waits out the deadline.
func (n *realNode) RecvDeadline(deadline float64) (Msg, bool) {
	for {
		n.mu.Lock()
		n.timed = false
		if len(n.queue) > 0 {
			m := n.queue[0]
			n.queue = n.queue[1:]
			n.mu.Unlock()
			return m, true
		}
		if math.IsInf(deadline, 1) {
			n.mu.Unlock()
			<-n.notify
			continue
		}
		remaining := deadline - n.w.clock.Now()
		if remaining <= 0 {
			n.mu.Unlock()
			return Msg{}, false
		}
		t := n.wakeTimer()
		if t == nil {
			n.mu.Unlock()
			timer := time.NewTimer(n.w.clock.wall(remaining))
			select {
			case <-n.notify:
				timer.Stop()
			case <-timer.C:
			}
			continue
		}
		at := time.Now().Add(n.w.clock.wall(remaining))
		_ = t.f.SetReadDeadline(at)
		n.timed = true
		n.mu.Unlock()
		t.wait(at)
	}
}
