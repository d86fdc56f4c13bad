package live

import (
	"repro/internal/vclock"
)

// VirtualWorld runs live actors on the deterministic virtual-time kernel
// of internal/vclock: actors execute cooperatively, one at a time, and
// the clock jumps to the next timer or delivery when everyone blocks.
// Runs are bit-for-bit reproducible, which is what the sim-vs-live
// conformance suite pins against the discrete-event engine.
//
// Determinism hinges on two ordering properties:
//
//   - the kernel resumes same-instant wakers in spawn order, and the
//     runtime spawns the master last, so every slave completion and
//     source submission due at an instant is posted (and, via the
//     kernel's synchronous delay-0 delivery, delivered) before the
//     master drains its mailbox and consults the scheduler — exactly the
//     engine's drain-all-events-then-consult rule;
//   - message delivery is ordered by (delivery time, posting order), so
//     admissions keep submission order.
type VirtualWorld struct {
	cluster *vclock.Cluster
	started bool
}

// NewVirtual creates an empty virtual world at time 0.
func NewVirtual() *VirtualWorld {
	return &VirtualWorld{cluster: vclock.New()}
}

// Spawn implements World.
func (w *VirtualWorld) Spawn(name string, fn func(n Node)) int {
	return w.cluster.Spawn(name, func(p *vclock.Proc) {
		fn(&virtualNode{p: p})
	})
}

// Start implements World. Cooperative execution happens inside Wait.
func (w *VirtualWorld) Start() {}

// Wait implements World: it runs the cluster to completion.
func (w *VirtualWorld) Wait() error {
	if w.started {
		return nil
	}
	w.started = true
	return w.cluster.Run()
}

// Post implements World. External injection would race the cooperative
// schedule, so a virtual world only accepts messages from its own actors.
func (w *VirtualWorld) Post(int, Msg) {
	panic("live: a virtual world only accepts messages from its own actors; submit jobs from a Source")
}

// virtualNode adapts a vclock process to the Node contract.
type virtualNode struct {
	p *vclock.Proc
}

// Now implements Clock.
func (n *virtualNode) Now() float64 { return n.p.Now() }

// Sleep implements Clock.
func (n *virtualNode) Sleep(d float64) { n.p.Sleep(d) }

// Send implements Node: post the delivery for the end of the transfer,
// then hold the caller (the sending port) for its duration.
func (n *virtualNode) Send(dst int, m Msg, transfer float64) float64 {
	m.At = n.p.Now() + transfer
	n.p.Post(dst, vclock.Message{Payload: m}, transfer)
	if transfer > 0 {
		n.p.Sleep(transfer)
	}
	return n.p.Now()
}

// Post implements Node: synchronous same-instant delivery, no yield.
func (n *virtualNode) Post(dst int, m Msg) {
	m.At = n.p.Now()
	n.p.Post(dst, vclock.Message{Payload: m}, 0)
}

// Recv implements Node.
func (n *virtualNode) Recv() (Msg, bool) {
	return n.p.Recv().Payload.(Msg), true
}

// RecvDeadline implements Node.
func (n *virtualNode) RecvDeadline(deadline float64) (Msg, bool) {
	m, ok := n.p.RecvDeadline(deadline)
	if !ok {
		return Msg{}, false
	}
	return m.Payload.(Msg), true
}
