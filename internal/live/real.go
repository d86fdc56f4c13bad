package live

import (
	"fmt"
	"math"
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

// Sleep blocks for d model seconds of wall time.
func (c *wallClock) Sleep(d float64) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d / c.speedup * float64(time.Second)))
}

// realNode is one goroutine actor's mailbox and clock handle.
type realNode struct {
	w    *RealWorld
	name string
	fn   func(n Node)

	mu     sync.Mutex
	queue  []Msg
	notify chan struct{} // capacity 1: wake signal for the owning actor
}

// deliver appends a message and wakes the owner if it is blocked.
func (n *realNode) deliver(m Msg) {
	n.mu.Lock()
	n.queue = append(n.queue, m)
	n.mu.Unlock()
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// Now implements Clock.
func (n *realNode) Now() float64 { return n.w.clock.Now() }

// Sleep implements Clock.
func (n *realNode) Sleep(d float64) { n.w.clock.Sleep(d) }

// Send implements Node: occupy the caller for the transfer, then deliver.
func (n *realNode) Send(dst int, m Msg, transfer float64) float64 {
	n.w.clock.Sleep(transfer)
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

// RecvDeadline implements Node.
func (n *realNode) RecvDeadline(deadline float64) (Msg, bool) {
	for {
		n.mu.Lock()
		if len(n.queue) > 0 {
			m := n.queue[0]
			n.queue = n.queue[1:]
			n.mu.Unlock()
			return m, true
		}
		n.mu.Unlock()

		if math.IsInf(deadline, 1) {
			<-n.notify
			continue
		}
		remaining := deadline - n.w.clock.Now()
		if remaining <= 0 {
			return Msg{}, false
		}
		timer := time.NewTimer(time.Duration(remaining / n.w.clock.speedup * float64(time.Second)))
		select {
		case <-n.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}
