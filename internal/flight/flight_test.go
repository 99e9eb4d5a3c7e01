package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// launchGo starts work on its own goroutine, counting launches.
func launchGo(launches *atomic.Int32, work func() (string, error)) func(func(string, error)) error {
	return func(finish func(string, error)) error {
		launches.Add(1)
		go func() { finish(work()) }()
		return nil
	}
}

// Concurrent callers of one key share one execution and one result;
// all but the first report joined.
func TestJoinersShareOneResult(t *testing.T) {
	var g Group[string]
	var launches atomic.Int32
	release := make(chan struct{})
	work := launchGo(&launches, func() (string, error) {
		<-release
		return "result", nil
	})

	const callers = 10
	var wg sync.WaitGroup
	var joins atomic.Int32
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, joined, err := g.Do(context.Background(), "k", work)
			if err != nil || v != "result" {
				t.Errorf("Do = %q, %v", v, err)
			}
			if joined {
				joins.Add(1)
			}
		}()
	}
	// Let every caller reach the table before the work finishes.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := launches.Load(); got != 1 {
		t.Errorf("work launched %d times for %d concurrent callers, want 1", got, callers)
	}
	if got := joins.Load(); got != callers-1 {
		t.Errorf("%d callers joined, want %d", got, callers-1)
	}
}

// A launch that refuses returns its error and leaves no entry: the next
// caller of the key launches again instead of joining a call that will
// never finish.
func TestRefusedLaunchLeavesNoEntry(t *testing.T) {
	var g Group[string]
	refused := errors.New("queue full")
	_, joined, err := g.Do(context.Background(), "k", func(func(string, error)) error { return refused })
	if !errors.Is(err, refused) || joined {
		t.Fatalf("refused Do = joined %v, %v; want the launch error", joined, err)
	}
	var launches atomic.Int32
	v, joined, err := g.Do(context.Background(), "k", launchGo(&launches, func() (string, error) { return "ok", nil }))
	if err != nil || v != "ok" || joined || launches.Load() != 1 {
		t.Fatalf("Do after refusal = %q, joined %v, %v, launches %d; want a fresh launch", v, joined, err, launches.Load())
	}
}

// A waiter that cancels gets its own ctx error; the work is not
// cancelled, and a waiter that stays gets the result.
func TestCancelledWaiterDoesNotCancelWork(t *testing.T) {
	var g Group[string]
	var launches atomic.Int32
	release := make(chan struct{})
	var finished atomic.Bool
	work := launchGo(&launches, func() (string, error) {
		<-release
		finished.Store(true)
		return "result", nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", work)
		ownerErr <- err
	}()
	for launches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	follower := make(chan string, 1)
	go func() {
		v, joined, err := g.Do(context.Background(), "k", work)
		if err != nil || !joined {
			t.Errorf("follower Do = joined %v, %v", joined, err)
		}
		follower <- v
	}()
	time.Sleep(10 * time.Millisecond)

	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v, want Canceled", err)
	}
	if finished.Load() {
		t.Fatal("work finished before release")
	}
	close(release)
	if v := <-follower; v != "result" {
		t.Fatalf("follower got %q after the owner cancelled, want the result", v)
	}
	if got := launches.Load(); got != 1 {
		t.Errorf("work launched %d times, want 1", got)
	}
}

// Once a call finishes its key is free: the next Do launches new work
// rather than replaying the old outcome.
func TestKeyReusedAfterFinish(t *testing.T) {
	var g Group[int]
	var launches atomic.Int32
	for want := 1; want <= 3; want++ {
		v, joined, err := g.Do(context.Background(), "k", func(finish func(int, error)) error {
			n := int(launches.Add(1))
			go finish(n, nil)
			return nil
		})
		if err != nil || joined || v != want {
			t.Fatalf("Do #%d = %d, joined %v, %v; want %d from a fresh launch", want, v, joined, err, want)
		}
	}
}

// A caller whose ctx has already ended gets its ctx error without
// launching work.
func TestEndedCallerLaunchesNothing(t *testing.T) {
	var g Group[string]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var launches atomic.Int32
	_, _, err := g.Do(ctx, "k", launchGo(&launches, func() (string, error) { return "late", nil }))
	if !errors.Is(err, context.Canceled) || launches.Load() != 0 {
		t.Fatalf("Do with an ended ctx = %v after %d launches, want Canceled and none", err, launches.Load())
	}
}
