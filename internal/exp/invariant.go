package exp

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrInvariant marks a computation that panicked instead of returning:
// an internal invariant of the simulator was violated (a closed-form bound
// overrun, a lost open metadata line, ...). A Runner's fan-out methods
// return such a panic as an *InvariantError, for which
// errors.Is(err, ErrInvariant) holds. The failed cell is never cached, so
// asking again recomputes it.
var ErrInvariant = errors.New("internal invariant violated")

// InvariantError is a recovered panic: the cell (or fan-out item) that
// raised it, the panic value, and the panicking goroutine's stack.
type InvariantError struct {
	Label string
	Value any
	Stack []byte
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("exp: %s: %v: %v", e.Label, ErrInvariant, e.Value)
}

// Unwrap makes errors.Is(err, ErrInvariant) hold.
func (e *InvariantError) Unwrap() error { return ErrInvariant }

// AsInvariant turns a recovered panic value into an *InvariantError
// labelled label, keeping an *InvariantError raised deeper (a nested
// cell's, with its own label and stack) as it is. Call it from the
// deferred function that recovered p, so the stack is the panic's.
func AsInvariant(p any, label string) *InvariantError {
	if e, ok := p.(*InvariantError); ok {
		return e
	}
	return &InvariantError{Label: label, Value: p, Stack: debug.Stack()}
}
