package clock

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestCalendarOrder: entries due at one Fire run in registration order,
// whatever time each was due at; one added by a firing entry waits for the
// next Fire; an Every is passed the time since it last fired.
func TestCalendarOrder(t *testing.T) {
	var c Calendar
	var got []string
	c.Every(0, 3, func(el time.Duration) { got = append(got, "every", el.String()) })
	c.At(2, func() {
		got = append(got, "at2")
		c.At(2, func() { got = append(got, "late") })
	})
	c.At(1, func() { got = append(got, "at1") })
	for now := time.Duration(0); now <= 8; now += 2 {
		if now >= c.Next() {
			c.Fire(now)
			got = append(got, "|")
		}
	}
	want := []string{"|", "at2", "at1", "|", "every", "4ns", "late", "|", "every", "4ns", "|"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if c.Next() != 11 {
		t.Fatalf("Next = %v, want 11", c.Next())
	}
}

// TestUntil: Until is the time left to t on either clock, and a time past
// is a negative duration.
func TestUntil(t *testing.T) {
	start := time.Unix(100, 0)
	v := NewVirtual(start)
	v.Advance(30)
	if got := v.Until(start.Add(50)); got != 20 {
		t.Fatalf("virtual Until = %v, want 20ns", got)
	}
	if got := v.Until(start); got != -30 {
		t.Fatalf("virtual Until of a past time = %v, want -30ns", got)
	}
	var w Wall
	if got := w.Until(w.Now().Add(time.Hour)); got <= 0 || got > time.Hour {
		t.Fatalf("wall Until an hour on = %v", got)
	}
}

// TestVirtualAdvance: Advance stops at each due time on its way, so a call
// reads the clock at its own deadline; a stopped call does nothing; a call
// may set the next one; WithTimeout's context ends at its deadline, or at
// its cancel.
func TestVirtualAdvance(t *testing.T) {
	start := time.Unix(100, 0)
	v := NewVirtual(start)
	var got []time.Duration
	at := func() { got = append(got, v.Now().Sub(start)) }
	v.AfterFunc(30, at)
	stopped := v.AfterFunc(20, at)
	v.AfterFunc(10, func() { at(); v.AfterFunc(0, at); v.AfterFunc(15, at) })
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop of a pending call must report true once, then false")
	}
	ctx, cancel := v.WithTimeout(context.Background(), 40)
	defer cancel()
	v.Advance(39)
	if want := []time.Duration{10, 10, 25, 30}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	if ctx.Err() != nil || v.Now() != start.Add(39) {
		t.Fatalf("at 39: context %v, clock %v", ctx.Err(), v.Now().Sub(start))
	}
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("a virtual timeout must not carry a wall-clock deadline")
	}
	v.Advance(1)
	if ctx.Err() == nil {
		t.Fatal("context alive at its deadline")
	}
	ctx2, cancel2 := v.WithTimeout(context.Background(), 5)
	cancel2()
	if ctx2.Err() == nil {
		t.Fatal("cancel did not end the context")
	}
	v.Advance(10)
	if len(got) != 4 {
		t.Fatalf("calls fired after the run: %v", got)
	}
}

// TestVirtualConcurrent: timers set and stopped from other goroutines
// while the clock advances, and from the calls it fires, are each fired
// or stopped exactly once.
func TestVirtualConcurrent(t *testing.T) {
	v := NewVirtual(time.Time{})
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				tm := v.AfterFunc(time.Duration(i%7), func() {
					v.AfterFunc(1, func() {})
					mu.Lock()
					fired++
					mu.Unlock()
				})
				if (i+g)%3 == 0 && tm.Stop() {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 100 {
			v.Advance(1)
		}
	}()
	wg.Wait()
	<-done
	v.Advance(10)
	if fired != 800 {
		t.Fatalf("%d of 800 calls fired or stopped", fired)
	}
}
