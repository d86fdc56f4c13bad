package vclock

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
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
