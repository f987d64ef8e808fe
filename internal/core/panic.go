package core

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic raised while simulating, recovered on the
// goroutine that ran the simulation. Runners start simulations on
// goroutines of their own, where no caller's recover can reach, so
// they hand the panic back as this error instead of letting it kill
// the process.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("simulation panic: %v", e.Value) }

// CapturePanic, deferred directly by a goroutine that runs a
// simulation, turns a panic on that goroutine into a *PanicError
// stored in *err.
func CapturePanic(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}
