package exp

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestComputePanicReleasesCell pins the panic contract of the cell
// singleflight: a panicking computation must not leave its cell open.
// A concurrent waiter gets an error instead of blocking forever, the
// panic reaches the computing caller, and a retry runs the computation
// again instead of serving a cached failure.
func TestComputePanicReleasesCell(t *testing.T) {
	r := NewRunner("df")
	m := map[string]*cell[int]{}
	started, fire := make(chan struct{}), make(chan struct{})

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		compute(r, m, "k", "simulate", "boom", func() (int, error) {
			close(started)
			<-fire
			panic("injected invariant violation")
		})
	}()
	<-started

	waiter := make(chan error, 1)
	go func() {
		_, err := compute(r, m, "k", "simulate", "boom", func() (int, error) {
			t.Error("waiter ran the computation; it should have joined the flight")
			return 0, nil
		})
		waiter <- err
	}()
	// The waiter counts a cache hit just before it blocks on the flight.
	for deadline := time.Now().Add(5 * time.Second); r.Log().CacheHits() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(fire)

	select {
	case err := <-waiter:
		if err == nil {
			t.Error("waiter of a panicked cell got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on the panicked cell")
	}
	if p := <-leader; p == nil {
		t.Error("the panic did not reach the computing caller")
	}

	calls := 0
	v, err := compute(r, m, "k", "simulate", "retry", func() (int, error) {
		calls++
		return 42, nil
	})
	if err != nil || v != 42 || calls != 1 {
		t.Errorf("retry = (%d, %v) after %d calls; want (42, nil) after 1 fresh call", v, err, calls)
	}
}

// TestForEachPanicIsInvariantError pins the fan-out's panic contract: with
// two workers, a cell that panics fails the call with an error that
// errors.Is ErrInvariant and carries the cell label and the stack, the
// other items still run, the process keeps going, and a retry recomputes
// the cell instead of serving the failure from the cache.
func TestForEachPanicIsInvariantError(t *testing.T) {
	r := NewRunner("df")
	r.Workers = 2
	m := map[int]*cell[int]{}
	var calls [4]atomic.Int32
	boom := true
	run := func() ([]int, error) {
		out := make([]int, 4)
		err := r.forEach(len(out), func(i int) error {
			v, err := compute(r, m, i, "simulate", fmt.Sprintf("cell%d", i), func() (int, error) {
				calls[i].Add(1)
				if i == 2 && boom {
					panic("injected invariant violation")
				}
				return 10 * i, nil
			})
			out[i] = v
			return err
		})
		return out, err
	}

	_, err := run()
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("forEach returned %v, want an ErrInvariant error", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Label != "simulate cell cell2" || len(ie.Stack) == 0 {
		t.Fatalf("invariant error %+v lacks the cell label or the stack", ie)
	}
	for i := range calls {
		if calls[i].Load() != 1 {
			t.Errorf("item %d computed %d times, want 1", i, calls[i].Load())
		}
	}

	boom = false
	out, err := run()
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if want := []int{0, 10, 20, 30}; !reflect.DeepEqual(out, want) {
		t.Errorf("retry = %v, want %v", out, want)
	}
	if calls[2].Load() != 2 || calls[0].Load() != 1 {
		t.Errorf("retry recomputed %d/%d times (cell2/cell0), want 2/1", calls[2].Load(), calls[0].Load())
	}
}

// TestForEachPanicOutsideCell covers a panic outside any cell: the item
// fails with an ErrInvariant error labelled by its index.
func TestForEachPanicOutsideCell(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := NewRunner("df")
		r.Workers = workers
		err := r.forEach(3, func(i int) error {
			if i == 1 {
				panic(fmt.Sprintf("item %d broke", i))
			}
			return nil
		})
		var ie *InvariantError
		if !errors.As(err, &ie) || !errors.Is(err, ErrInvariant) || ie.Label != "item 1" {
			t.Errorf("workers=%d: forEach returned %v, want item 1's ErrInvariant error", workers, err)
		}
	}
}
