package exp

import (
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
