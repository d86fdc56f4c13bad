package obs

import "sync"

// Decision audit: a bounded, preallocated ring of the router's recent
// placement, steal and migration decisions, answering "why did job J
// land on shard 2?" without logging on the hot path. Record copies the
// entry into a preallocated slot under a short mutex — no allocation,
// no I/O — and the per-entry score vectors live in one backing array
// sized at construction, so steady-state recording never touches the
// allocator. Readers (GET /v1/decisions) copy the newest entries out.

// Decision kinds.
const (
	// DecisionPlace is one job routed to a shard at submission.
	DecisionPlace = "place"
	// DecisionSteal is one rebalancer plan entry (From → To, N jobs).
	DecisionSteal = "steal"
	// DecisionMigrate is one executed migration with its realized size
	// and latency.
	DecisionMigrate = "migrate"
)

// Decision is one audit entry. Which fields are meaningful depends on
// Kind: a place has Job, To and Scores (the policy's per-shard scores —
// chosen and rejected alike — NaN where a shard was not scored); a
// steal has From, To and Planned; a migrate has From, To, Planned, the
// realized N and its wall latency.
type Decision struct {
	// Seq is the entry's global sequence number, monotonically
	// increasing from 1; gaps in a reader's view mean the ring wrapped.
	Seq uint64 `json:"seq"`
	// Wall is the decision's wall-clock time in Unix nanoseconds,
	// supplied by the caller (the audit never reads a clock itself).
	Wall int64 `json:"wall_unix_nano"`
	// Kind is one of the Decision* constants.
	Kind string `json:"kind"`
	// Policy names the policy that made the decision.
	Policy string `json:"policy"`
	// Job is the global job ID for placements, -1 otherwise.
	Job int `json:"job,omitempty"`
	// From and To are shard indices; From is -1 for placements.
	From int `json:"from"`
	To   int `json:"to"`
	// Planned and N are the intended and realized move sizes for
	// steals/migrations (a migration may move less than planned).
	Planned int `json:"planned,omitempty"`
	N       int `json:"n,omitempty"`
	// LatencySeconds is the migration's execution latency.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
	// Scores are the placement policy's per-shard scores at decision
	// time (lower is better for the scoring policies); empty when the
	// policy exposes none. The slice aliases the ring's backing array —
	// valid only in entries returned by Recent, which copies.
	Scores []float64 `json:"scores,omitempty"`
}

// AuditRing is the bounded decision store. All storage is allocated at
// construction: cap Decision slots plus one cap×shards float backing
// array the per-entry score slices are carved from.
type AuditRing struct {
	mu      sync.Mutex
	entries []Decision
	backing []float64 // scores storage: entries[i] uses [i*stride, (i+1)*stride)
	stride  int
	next    uint64 // total recorded; entries[(next-1) % cap] is newest
	dropped uint64
	sink    func(Decision)
}

// NewAuditRing builds a ring holding the most recent capacity
// decisions, each able to carry up to shards scores. capacity <= 0
// returns nil — a nil *AuditRing is a valid, always-off audit (Record
// is a no-op, Recent returns nothing), so callers need no branching.
func NewAuditRing(capacity, shards int) *AuditRing {
	if capacity <= 0 {
		return nil
	}
	if shards < 0 {
		shards = 0
	}
	return &AuditRing{
		entries: make([]Decision, capacity),
		backing: make([]float64, capacity*shards),
		stride:  shards,
	}
}

// Record stores one decision. d.Scores (if any) is copied into the
// ring's backing array, truncated to the per-entry stride; d.Seq is
// assigned by the ring. Safe for concurrent use; allocation-free.
func (a *AuditRing) Record(d Decision) {
	if a == nil {
		return
	}
	a.mu.Lock()
	i := int(a.next % uint64(len(a.entries)))
	if a.next >= uint64(len(a.entries)) {
		a.dropped++
	}
	a.next++
	d.Seq = a.next
	if n := len(d.Scores); n > 0 && a.stride > 0 {
		if n > a.stride {
			n = a.stride
		}
		dst := a.backing[i*a.stride : i*a.stride+n]
		copy(dst, d.Scores[:n])
		d.Scores = dst
	} else {
		d.Scores = nil
	}
	a.entries[i] = d
	if a.sink != nil {
		a.sink(d)
	}
	a.mu.Unlock()
}

// SetSink registers a hook invoked with every recorded decision (Seq
// assigned), under the ring's mutex — the flight recorder's journaling
// tap. The hook must be fast, must not call back into the ring, and
// must copy d.Scores if it retains them (they alias the ring's backing
// array). Set it before decisions flow; nil removes the sink.
func (a *AuditRing) SetSink(fn func(Decision)) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sink = fn
	a.mu.Unlock()
}

// Len returns how many entries the ring currently holds.
func (a *AuditRing) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next < uint64(len(a.entries)) {
		return int(a.next)
	}
	return len(a.entries)
}

// Dropped returns how many decisions the ring has overwritten — the
// audit's loss counter, exposed as a metric so a scraper knows when its
// polling cadence is too slow for the decision rate.
func (a *AuditRing) Dropped() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Recent returns up to n of the newest decisions, newest first, as
// copies (scores included) safe to hold after the ring wraps. n <= 0
// means all held entries.
func (a *AuditRing) Recent(n int) []Decision {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	held := len(a.entries)
	if a.next < uint64(held) {
		held = int(a.next)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Decision, n)
	for k := 0; k < n; k++ {
		i := int((a.next - 1 - uint64(k)) % uint64(len(a.entries)))
		d := a.entries[i]
		if len(d.Scores) > 0 {
			d.Scores = append([]float64(nil), d.Scores...)
		}
		out[k] = d
	}
	return out
}
