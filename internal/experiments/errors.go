package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PermanentError marks a Run failure that retrying cannot fix: an invalid
// spec, an impossible SoC configuration, a workload trace that does not
// build, a misconfigured tracer. It is the permanent half of the service's
// transient-vs-permanent failure taxonomy — everything else a point can
// return (a watchdog hang, a context deadline, a recovered panic, a fault
// injected by the chaos harness) is presumed transient and worth retrying,
// because re-executing against healthy workers or fresh state may succeed.
type PermanentError struct {
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *PermanentError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err as a PermanentError. A nil err stays nil, so call
// sites can wrap unconditionally.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// IsPermanent reports whether err is (or wraps) a PermanentError — a failure
// class no retry policy should spend attempts on.
func IsPermanent(err error) bool {
	var p *PermanentError
	return errors.As(err, &p)
}

// PanicError is a panic recovered from one run or work item: a diverging
// simulation, an integrity check the simulator tripped, a fault the chaos
// harness injected. The fault campaigns classify it as Detected; the sweep
// service retries it as transient, like any failure that is not Permanent.
type PanicError struct {
	// What names the run or item that panicked (a RunSpec, "item 5"); it is
	// formatted only when the error is.
	What any
	// Value is what was passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at the recovery point.
	Stack []byte
}

// Error renders the failing item, the panic value and the stack, so a
// diverging point deep in a sweep is diagnosable from its error alone.
func (e *PanicError) Error() string {
	return fmt.Sprintf("experiments: %v panicked: %v\n%s", e.What, e.Value, e.Stack)
}

// Recover runs fn and returns its error, or a *PanicError naming what if fn
// panics. It is the one place a run's panic is recovered: the worker pool,
// the ideal-baseline cache, the fault campaigns and the sweep service's
// workers all go through it.
func Recover(what any, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{What: what, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}
