package simomp

import (
	"fmt"
	"sync"

	"maia/internal/vclock"
)

// Data-movement constructs: the EPCC suite's third family (Section 3.4
// mentions "data privatization" alongside scheduling and
// synchronization). PRIVATE allocates a per-thread copy; FIRSTPRIVATE
// also copies the master's value in; COPYPRIVATE broadcasts one thread's
// value to the team after a SINGLE.

// DataClause enumerates the measured data-movement clauses.
type DataClause int

const (
	// Private gives each thread an uninitialized copy of the variable.
	Private DataClause = iota
	// FirstPrivate also copies the master's value into each copy.
	FirstPrivate
	// CopyPrivate broadcasts one thread's value after a SINGLE.
	CopyPrivate
)

// String implements fmt.Stringer.
func (c DataClause) String() string {
	switch c {
	case Private:
		return "PRIVATE"
	case FirstPrivate:
		return "FIRSTPRIVATE"
	case CopyPrivate:
		return "COPYPRIVATE"
	default:
		return fmt.Sprintf("DataClause(%d)", int(c))
	}
}

// DataClauses lists the clauses in display order.
func DataClauses() []DataClause { return []DataClause{Private, FirstPrivate, CopyPrivate} }

// dataBase are per-clause fixed costs (µs at the reference thread
// counts), before the per-byte copy term.
func (r *Runtime) dataBase(c DataClause) float64 {
	if r.part.Device.IsPhi() {
		switch c {
		case Private:
			return 22.0 // a PARALLEL with per-thread stack carving
		case FirstPrivate:
			return 24.0
		default: // CopyPrivate
			return 14.0
		}
	}
	switch c {
	case Private:
		return 2.0
	case FirstPrivate:
		return 2.2
	default:
		return 1.3
	}
}

// copyGBs is the per-thread memcpy rate used for privatized arrays.
func (r *Runtime) copyGBs() float64 {
	if r.part.Device.IsPhi() {
		return 1.5 // one in-order core's copy bandwidth
	}
	return 9.0
}

// DataMoveOverhead returns the overhead of privatizing `bytes` of data
// per thread under the given clause (EPCC definition). PRIVATE pays
// allocation only; FIRSTPRIVATE adds every thread copying the master's
// array (concurrently, but through the shared memory system);
// COPYPRIVATE is one copy out plus a broadcast tree.
func (r *Runtime) DataMoveOverhead(c DataClause, bytes int) vclock.Time {
	base := r.dataBase(c) * r.threadScale(Parallel)
	if r.part.UsesOSCore {
		base *= r.table.osCoreMult
	}
	o := vclock.Time(base) * vclock.Microsecond
	copyTime := vclock.Time(float64(bytes) / (r.copyGBs() * 1e9))
	switch c {
	case Private:
		// Allocation cost only; no value copy.
		return o
	case FirstPrivate:
		// All threads copy concurrently; bandwidth shared beyond a few
		// threads, modeled as 4-way effective concurrency.
		conc := 4.0
		if t := float64(r.part.Threads()); t < conc {
			conc = t
		}
		return o + vclock.Time(float64(bytes)/(r.copyGBs()*conc*1e9))
	default: // CopyPrivate
		return o + copyTime
	}
}

// --- Real mutual-exclusion helpers -----------------------------------
//
// The microbenchmark overheads above price the constructs; these helpers
// let kernel code EXECUTE them for real when a loop body genuinely needs
// mutual exclusion, charging the modeled cost per acquisition.

// CriticalSection guards a `#pragma omp critical` region: Do runs body
// under a real mutex and returns the construct's virtual cost.
type CriticalSection struct {
	rt *Runtime
	mu sync.Mutex
}

// NewCriticalSection builds a critical section bound to a runtime.
func NewCriticalSection(rt *Runtime) *CriticalSection {
	return &CriticalSection{rt: rt}
}

// Do executes body exclusively and returns the virtual overhead of one
// CRITICAL entry/exit.
func (c *CriticalSection) Do(body func()) vclock.Time {
	c.mu.Lock()
	body()
	c.mu.Unlock()
	return c.rt.SyncOverhead(Critical)
}

// AtomicAdd performs a real atomic-style accumulation (serialized by an
// internal mutex; Go has no float64 atomic add) and returns the ATOMIC
// construct's virtual cost.
type AtomicAccumulator struct {
	rt  *Runtime
	mu  sync.Mutex
	val float64
}

// NewAtomicAccumulator builds an accumulator bound to a runtime.
func NewAtomicAccumulator(rt *Runtime) *AtomicAccumulator {
	return &AtomicAccumulator{rt: rt}
}

// Add accumulates x and returns one ATOMIC's virtual cost.
func (a *AtomicAccumulator) Add(x float64) vclock.Time {
	a.mu.Lock()
	a.val += x
	a.mu.Unlock()
	return a.rt.SyncOverhead(Atomic)
}

// Value returns the accumulated sum.
func (a *AtomicAccumulator) Value() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.val
}
