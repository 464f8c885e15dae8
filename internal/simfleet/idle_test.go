package simfleet

import (
	"math/rand"
	"testing"

	"maia/internal/vclock"
)

// TestIdleIndexMatchesBruteForce drives random add/remove sequences
// through the index and checks every query against a []bool reference
// answered the way the pre-index scans answered it: least-loaded is a
// strict-< ascending scan, next-from a wrapping walk, k-th the k-th
// member in ascending order. Sizes straddle the 64-bit word boundaries.
func TestIdleIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 512} {
		for trial := 0; trial < 8; trial++ {
			x := newIdleIndex(n, true)
			idle := make([]bool, n)
			busy := make([]vclock.Time, n)
			for i := range idle {
				idle[i] = true
			}
			for op := 0; op < 10*n; op++ {
				i := rng.Intn(n)
				// Trials cycle the removal share through 1/4, 1/2 and
				// 3/4, so both dense and sparse sets occur.
				switch {
				case rng.Intn(4) <= trial%3:
					x.remove(i)
					if idle[i] {
						// Keys change only while out of the index; a few
						// distinct values force ties on busy.
						busy[i] = vclock.Time(rng.Intn(4))
					}
					idle[i] = false
				default:
					x.add(i, busy[i])
					idle[i] = true
				}
				checkIdleIndex(t, &x, idle, busy, rng)
				if t.Failed() {
					t.Fatalf("n=%d trial=%d op=%d", n, trial, op)
				}
			}
			x.release()
		}
	}
}

// checkIdleIndex compares every query of x against the reference.
func checkIdleIndex(t *testing.T, x *idleIndex, idle []bool, busy []vclock.Time, rng *rand.Rand) {
	t.Helper()
	n := len(idle)
	var members []int
	least := -1
	for i, ok := range idle {
		if x.has(i) != ok {
			t.Errorf("has(%d) = %t, want %t", i, !ok, ok)
		}
		if ok {
			members = append(members, i)
			if least < 0 || busy[i] < busy[least] {
				least = i
			}
		}
	}
	if x.count != len(members) {
		t.Errorf("count %d, want %d", x.count, len(members))
	}
	if got := x.least(); got != least {
		t.Errorf("least() = %d, want %d", got, least)
	}
	from := rng.Intn(n + 1) // the round-robin cursor reaches n
	next := -1
	for off := 0; off < n; off++ {
		if i := (from + off) % n; idle[i] {
			next = i
			break
		}
	}
	if got := x.nextFrom(from); got != next {
		t.Errorf("nextFrom(%d) = %d, want %d", from, got, next)
	}
	if len(members) > 0 {
		k := rng.Intn(len(members))
		if got := x.kth(k); got != members[k] {
			t.Errorf("kth(%d) = %d, want %d", k, got, members[k])
		}
	}
}
