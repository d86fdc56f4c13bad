package vclock

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	c := New()
	var woke float64
	c.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3.5)
		woke = p.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3.5 {
		t.Fatalf("woke at %v", woke)
	}
	if c.Now() != 3.5 {
		t.Fatalf("cluster clock %v", c.Now())
	}
}

func TestInterleavedSleepers(t *testing.T) {
	c := New()
	var order []string
	log := func(s string) { order = append(order, s) }
	c.Spawn("a", func(p *Proc) {
		p.Sleep(1)
		log("a@1")
		p.Sleep(2)
		log("a@3")
	})
	c.Spawn("b", func(p *Proc) {
		p.Sleep(2)
		log("b@2")
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a@1,b@2,a@3"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestSimultaneousWakesOrderedByID(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Spawn("p", func(p *Proc) {
			p.Sleep(1)
			order = append(order, i)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v", order)
		}
	}
}

func TestPostAndRecv(t *testing.T) {
	c := New()
	var got Message
	var at float64
	receiver := c.Spawn("rx", func(p *Proc) {
		got = p.Recv()
		at = p.Now()
	})
	c.Spawn("tx", func(p *Proc) {
		p.Sleep(1)
		p.Post(receiver, Message{Payload: "hi"}, 2.5)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3.5 {
		t.Fatalf("received at %v, want 3.5", at)
	}
	if got.Payload != "hi" {
		t.Fatalf("message %+v", got)
	}
}

func TestRecvDeadlineExpires(t *testing.T) {
	c := New()
	var ok bool
	var at float64
	c.Spawn("rx", func(p *Proc) {
		_, ok = p.RecvDeadline(4)
		at = p.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("received a message from nowhere")
	}
	if at != 4 {
		t.Fatalf("deadline returned at %v", at)
	}
}

func TestRecvDeadlinePolls(t *testing.T) {
	c := New()
	rx := c.Spawn("rx", func(p *Proc) {
		// Poll: deadline == now, empty mailbox.
		if _, ok := p.RecvDeadline(p.Now()); ok {
			t.Error("poll on empty mailbox succeeded")
		}
		p.Sleep(2)
		// Message was delivered at t=1 while sleeping; poll must see it.
		if _, ok := p.RecvDeadline(p.Now()); !ok {
			t.Error("poll missed a delivered message")
		}
	})
	c.Spawn("tx", func(p *Proc) {
		p.Post(rx, Message{Payload: 1}, 1)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMessagesDeliveredInOrder(t *testing.T) {
	c := New()
	var tags []int
	rx := c.Spawn("rx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			tags = append(tags, p.Recv().Payload.(int))
		}
	})
	c.Spawn("tx", func(p *Proc) {
		p.Post(rx, Message{Payload: 3}, 3)
		p.Post(rx, Message{Payload: 1}, 1)
		p.Post(rx, Message{Payload: 2}, 2)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if tags[0] != 1 || tags[1] != 2 || tags[2] != 3 {
		t.Fatalf("delivery order %v", tags)
	}
}

func TestSimultaneousDeliveriesKeepPostOrder(t *testing.T) {
	c := New()
	var tags []int
	rx := c.Spawn("rx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			tags = append(tags, p.Recv().Payload.(int))
		}
	})
	c.Spawn("tx", func(p *Proc) {
		p.Post(rx, Message{Payload: 10}, 1)
		p.Post(rx, Message{Payload: 11}, 1)
		p.Post(rx, Message{Payload: 12}, 1)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if tags[0] != 10 || tags[1] != 11 || tags[2] != 12 {
		t.Fatalf("tie order %v", tags)
	}
}

func TestDeadlockDetected(t *testing.T) {
	c := New()
	c.Spawn("stuck", func(p *Proc) {
		p.Recv() // nobody will ever send
	})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("blocked process not named: %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	c := New()
	c.Spawn("boom", func(p *Proc) {
		panic("kaboom")
	})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	c := New()
	c.Spawn("bad", func(p *Proc) {
		p.Sleep(-1)
	})
	if err := c.Run(); err == nil {
		t.Fatal("negative sleep accepted")
	}
}

func TestZeroSleepYields(t *testing.T) {
	c := New()
	steps := 0
	c.Spawn("z", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(0)
			steps++
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 10 || c.Now() != 0 {
		t.Fatalf("steps=%d now=%v", steps, c.Now())
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	c := New()
	c.Spawn("a", func(p *Proc) {})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run accepted")
		}
	}()
	c.Spawn("late", func(p *Proc) {})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		c := New()
		var trace []float64
		rx := c.Spawn("rx", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Recv()
				trace = append(trace, p.Now())
			}
		})
		for w := 0; w < 4; w++ {
			w := w
			c.Spawn("tx", func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Sleep(float64(w+1) * 0.7)
					p.Post(rx, Message{Payload: w}, 0.3)
				}
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManyProcessesProgress(t *testing.T) {
	c := New()
	var total atomic.Int64
	for i := 0; i < 100; i++ {
		c.Spawn("w", func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(0.1)
			}
			total.Add(1)
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 100 {
		t.Fatalf("%d processes finished", total.Load())
	}
	if math.Abs(c.Now()-5) > 1e-9 {
		t.Fatalf("clock %v, want 5", c.Now())
	}
}

func TestImmediateDeliveryVisibleToSameInstantPoll(t *testing.T) {
	c := New()
	var sawAt float64 = -1
	rx := c.Spawn("rx", func(p *Proc) {
		// Wake at t=2 alongside tx, then yield once so tx (higher id,
		// resumed later in the sweep) posts its delay-0 message; the poll
		// at the same instant must see it.
		p.Sleep(2)
		p.Sleep(0)
		if _, ok := p.RecvDeadline(p.Now()); ok {
			sawAt = p.Now()
		}
	})
	c.Spawn("tx", func(p *Proc) {
		p.Sleep(2)
		p.Post(rx, Message{Payload: 7}, 0)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt != 2 {
		t.Fatalf("same-instant poll saw the message at %v, want 2", sawAt)
	}
}

func TestImmediateDeliveryWakesReceiver(t *testing.T) {
	c := New()
	var gotTag int
	var gotAt float64
	rx := c.Spawn("rx", func(p *Proc) {
		m := p.Recv()
		gotTag, gotAt = m.Payload.(int), p.Now()
	})
	c.Spawn("tx", func(p *Proc) {
		p.Sleep(1.5)
		p.Post(rx, Message{Payload: 9}, 0)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if gotTag != 9 || gotAt != 1.5 {
		t.Fatalf("got tag %d at %v, want 9 at 1.5", gotTag, gotAt)
	}
}

func TestImmediateDeliveryKeepsHeapOrder(t *testing.T) {
	// A message posted earlier with a positive delay and one posted at its
	// delivery instant with delay 0 must be received in (deliverAt, seq)
	// order: the heap message was flushed when the clock reached t, before
	// any process ran, so the delay-0 append lands after it.
	c := New()
	var tags []int
	rx := c.Spawn("rx", func(p *Proc) {
		for i := 0; i < 2; i++ {
			m := p.Recv()
			tags = append(tags, m.Payload.(int))
		}
	})
	c.Spawn("early", func(p *Proc) {
		p.Post(rx, Message{Payload: 1}, 3) // posted at t=0, due t=3: seq 0
	})
	c.Spawn("late", func(p *Proc) {
		p.Sleep(3)
		p.Post(rx, Message{Payload: 2}, 0) // posted at t=3: seq 1
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 || tags[0] != 1 || tags[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", tags)
	}
}

// TestResumeOrderPinned pins the order in which processes are resumed as
// a sequence, not as a property of whatever runs the scheduling step: the
// expected (time, id) list was recorded from the kernel-goroutine
// implementation ("sweep the ids in order, repeat while progress, restart
// at id 0 after every clock advance") and every implementation since must
// reproduce it. The scenario mixes same-instant timers, delay-0 posts to
// lower and higher ids, Sleep(0), receive deadlines expiring in the
// instant mail arrives, and a process finishing mid-sweep.
func TestResumeOrderPinned(t *testing.T) {
	type resume struct {
		at float64
		id int
	}
	var got []resume
	c := New()
	mark := func(p *Proc) { got = append(got, resume{p.Now(), p.ID()}) }
	// ids are spawn order: a=0 b=1 c=2 d=3 e=4.
	c.Spawn("a", func(p *Proc) {
		mark(p)
		p.Sleep(1)
		mark(p)
		p.Post(2, Message{}, 0) // delay 0 to a higher id, still sleeping out t=1
		p.Post(1, Message{}, 0) // delay 0 to a higher id blocked in Recv
		p.Sleep(0)
		mark(p)
		p.Recv()                             // c's delay-0 mail is already there: no yield
		if _, ok := p.RecvDeadline(2); !ok { // e's mail lands at exactly t=2
			t.Error("a: mail due at the deadline lost to the deadline")
		}
		mark(p)
		p.Post(1, Message{}, 0)               // b's deadline expired this instant; it has not run yet
		if _, ok := p.RecvDeadline(2.5); ok { // nothing comes: expires beside b's and c's timers
			t.Error("a: received mail nobody sent")
		}
		mark(p)
	})
	c.Spawn("b", func(p *Proc) {
		mark(p)
		p.Recv()
		mark(p)
		p.Recv()
		mark(p)
		if _, ok := p.RecvDeadline(2); !ok {
			t.Error("b: same-instant mail from a lower id lost to the deadline")
		}
		mark(p)
		p.Sleep(0.5)
		mark(p)
	})
	c.Spawn("c", func(p *Proc) {
		mark(p)
		p.Sleep(1)
		mark(p)
		p.Recv()                // already in the mailbox: no yield
		p.Post(0, Message{}, 0) // delay 0 to a lower id that is sleeping(0)
		p.Post(1, Message{}, 0) // delay 0 to a lower id back in Recv
		p.Sleep(0)
		mark(p)
		p.Sleep(1.5)
		mark(p)
	})
	c.Spawn("d", func(p *Proc) {
		mark(p)
		p.Sleep(1)
		mark(p) // finishes mid-sweep at t=1
	})
	c.Spawn("e", func(p *Proc) {
		mark(p)
		p.Sleep(1)
		mark(p)
		p.Post(0, Message{}, 1) // due t=2: the instant a's deadline expires
		p.Sleep(0)
		mark(p)
		p.Sleep(1)
		mark(p)
		p.Post(3, Message{}, 0) // to a finished proc: stays in its mailbox
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []resume{
		{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4},
		// t=1: the sweep reaches d and e before it wraps to b, which c made
		// ready from a higher id; the Sleep(0)s wait for the zero-length
		// advance, which restarts the sweep at id 0.
		{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 1}, {1, 0}, {1, 2}, {1, 4},
		{2, 0}, {2, 1}, {2, 4},
		{2.5, 0}, {2.5, 1}, {2.5, 2},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("resume order\n got %v\nwant %v", got, want)
	}
}

// TestRunLeavesNoGoroutines checks that Run takes every process goroutine
// down with it: after a clean run, and after a deadlock or a panic with
// other processes parked mid-Recv, mid-Sleep and not yet started.
func TestRunLeavesNoGoroutines(t *testing.T) {
	bystanders := func(c *Cluster) {
		c.Spawn("receiver", func(p *Proc) { p.Recv() })
		c.Spawn("sleeper", func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("release surfaced as a panic: %v", r)
				}
			}()
			p.Sleep(10)
			t.Error("a released process carried on")
		})
	}
	cases := []struct {
		name    string
		build   func(c *Cluster)
		wantErr string
	}{
		{"clean", func(c *Cluster) {
			rx := c.Spawn("rx", func(p *Proc) { p.Recv() })
			c.Spawn("tx", func(p *Proc) { p.Sleep(1); p.Post(rx, Message{}, 1) })
		}, ""},
		{"deadlock", func(c *Cluster) {
			c.Spawn("stuck", func(p *Proc) { p.Recv() })
			c.Spawn("stuck too", func(p *Proc) { p.Sleep(1); p.Recv() })
		}, "deadlock"},
		{"panic", func(c *Cluster) {
			bystanders(c)
			c.Spawn("boom", func(p *Proc) { panic("kaboom") })
			c.Spawn("never started", func(p *Proc) { t.Error("resumed after the failure") })
		}, "kaboom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c := New()
			tc.build(c)
			err := c.Run()
			if (tc.wantErr == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("Run = %v, want error containing %q", err, tc.wantErr)
			}
			// Run has waited for every process; a goroutine past its last
			// deferred call may still be counted for an instant.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before Run, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStandingMailboxStaysBounded covers the mailbox a receiver never
// drains — a slave the port outruns: a standing backlog of unread mail
// with 50,000 messages streaming through it. Delivery order holds, the
// backing array stays the size of the backlog rather than of the history,
// and a consumed payload is no longer referenced from it.
func TestStandingMailboxStaysBounded(t *testing.T) {
	const backlog, total = 100, 50_000
	c := New()
	rx := c.Spawn("rx", func(p *Proc) {
		for want := 0; want < total; want++ {
			p.Sleep(1) // one out per tick, behind the `backlog` sent at t=0
			if got := p.Recv().Payload.(int); got != want {
				t.Errorf("message %d arrived in position %d", got, want)
				return
			}
			if unread := len(p.mailbox) - p.head; (unread < backlog-1 && want < total-backlog) || cap(p.mailbox) > 8*backlog {
				t.Errorf("after %d messages: %d unread (want a standing %d) in room for %d", want, unread, backlog, cap(p.mailbox))
				return
			}
			for _, m := range p.mailbox[:p.head] {
				if m.Payload != nil {
					t.Errorf("consumed payload %v still referenced from the mailbox", m.Payload)
					return
				}
			}
		}
	})
	c.Spawn("tx", func(p *Proc) {
		for i := 0; i < total; i++ {
			if i >= backlog {
				p.Sleep(1) // one in per tick
			}
			p.Post(rx, Message{Payload: i}, 0)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDelayedPostAllocationFree pins the delivery heap to its concrete
// element type: once the heap and the mailbox have grown, a delayed Post,
// its delivery at the clock advance and the Recv that takes it allocate
// nothing (the payload is boxed once, by the caller, before the loop).
func TestDelayedPostAllocationFree(t *testing.T) {
	c := New()
	var allocs float64
	c.Spawn("self", func(p *Proc) {
		msg := Message{Payload: any(7)}
		allocs = testing.AllocsPerRun(200, func() {
			p.Post(p.ID(), msg, 1)
			if got := p.Recv(); got.Payload != msg.Payload {
				t.Errorf("received %v, want %v", got.Payload, msg.Payload)
			}
		})
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("delayed Post + delivery + Recv allocates %v times, want 0", allocs)
	}
	if c.Now() != 201 {
		t.Fatalf("clock at %v, want 201 (one unit per delayed message)", c.Now())
	}
}
