package compss

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"taskml/internal/exec"
)

// fakeFleet is an exec.Backend that also implements exec.Fleet, with a
// settable slot total: the compss runtime must size its slot pool from it
// and re-target the pool when the watcher fires.
type fakeFleet struct {
	mu       sync.Mutex
	slots    int
	ceiling  int
	watchSeq int
	watchers map[int]func(int)
}

func (f *fakeFleet) ExecuteTask(*exec.Request) ([]any, string, error) {
	return nil, "", errors.New("fakeFleet executes nothing")
}
func (f *fakeFleet) Close() error                { return nil }
func (f *fakeFleet) Join(string) (string, error) { return "", errors.New("fake") }
func (f *fakeFleet) Drain(string) error          { return errors.New("fake") }
func (f *fakeFleet) Leave(string) error          { return errors.New("fake") }
func (f *fakeFleet) Workers() []exec.WorkerInfo  { return nil }

func (f *fakeFleet) SlotTotal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slots
}
func (f *fakeFleet) SlotCeiling() int { return f.ceiling }

func (f *fakeFleet) Watch(fn func(int)) func() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.watchers == nil {
		f.watchers = make(map[int]func(int))
	}
	id := f.watchSeq
	f.watchSeq++
	f.watchers[id] = fn
	return func() {
		f.mu.Lock()
		delete(f.watchers, id)
		f.mu.Unlock()
	}
}

func (f *fakeFleet) watcherCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.watchers)
}

func (f *fakeFleet) setSlots(n int) {
	f.mu.Lock()
	f.slots = n
	fns := make([]func(int), 0, len(f.watchers))
	for _, fn := range f.watchers {
		fns = append(fns, fn)
	}
	f.mu.Unlock()
	for _, fn := range fns {
		fn(n)
	}
}

var _ exec.Backend = (*fakeFleet)(nil)
var _ exec.Fleet = (*fakeFleet)(nil)

// TestElasticCapacity pins the membership→parallelism contract: a runtime
// over an elastic backend starts with the fleet's live slot total as its
// effective parallelism, and a slot-total change mid-run re-targets the
// pool without a new runtime.
func TestElasticCapacity(t *testing.T) {
	fleet := &fakeFleet{slots: 1, ceiling: 4}
	rt := New(Config{Workers: 1, Backend: fleet})
	if got := rt.sem.capacity(); got != 1 {
		t.Fatalf("initial pool capacity = %d, want 1 (live slot total)", got)
	}

	started := make(chan int, 4)
	release := make(chan struct{})
	var futs []*Future
	for i := 0; i < 4; i++ {
		i := i
		futs = append(futs, rt.Submit(Opts{Name: "hold"}, func(_ *TaskCtx, _ []any) (any, error) {
			started <- i
			<-release
			return i, nil
		}))
	}

	// One slot: exactly one body starts; the other three queue.
	<-started
	select {
	case i := <-started:
		t.Fatalf("task %d started beyond the 1-slot capacity", i)
	case <-time.After(100 * time.Millisecond):
	}

	// The fleet grows to 4 slots: the watcher re-targets the pool and the
	// three queued bodies start without any new submission.
	fleet.setSlots(4)
	if got := rt.sem.capacity(); got != 4 {
		t.Fatalf("pool capacity after growth = %d, want 4", got)
	}
	for n := 1; n < 4; n++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d bodies running after the fleet grew to 4 slots", n)
		}
	}

	// Shrink below the configured base: the pool clamps at Workers, and
	// slots already held are never revoked — the run finishes cleanly.
	fleet.setSlots(0)
	if got := rt.sem.capacity(); got != 1 {
		t.Fatalf("pool capacity after shrink = %d, want the Workers base 1", got)
	}
	close(release)
	for _, f := range futs {
		if _, err := rt.Get(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDroppedRuntimeCancelsWatch: a runtime's fleet subscription must not
// keep the runtime alive. Runtimes built and dropped over one long-lived
// backend become collectable, and their Watch subscriptions are cancelled,
// returning the backend's watcher count to its baseline; a runtime still in
// use keeps its subscription.
func TestDroppedRuntimeCancelsWatch(t *testing.T) {
	fleet := &fakeFleet{slots: 2, ceiling: 4}
	live := New(Config{Workers: 1, Backend: fleet})
	base := fleet.watcherCount()

	const dropped = 16
	for i := 0; i < dropped; i++ {
		rt := New(Config{Workers: 1, Backend: fleet})
		f := rt.Submit(Opts{Name: "drop"}, func(_ *TaskCtx, _ []any) (any, error) { return i, nil })
		if v, err := rt.Get(f); err != nil || v.(int) != i {
			t.Fatalf("runtime %d: Get = %v, %v", i, v, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for fleet.watcherCount() > base {
		if time.Now().After(deadline) {
			t.Fatalf("watchers = %d after dropping %d runtimes, want the baseline %d: the subscription keeps dropped runtimes reachable",
				fleet.watcherCount(), dropped, base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}

	// The surviving runtime's subscription is intact and still live.
	fleet.setSlots(3)
	if got := live.sem.capacity(); got != 3 {
		t.Fatalf("live runtime capacity = %d after the fleet grew to 3, want 3", got)
	}
}
