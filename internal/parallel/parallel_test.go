package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderedMerge(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 50
		out := make([]int, n)
		err := Run(workers, n, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if err := Run(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := Run(4, 1, func(i int) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}

// TestRunLowestIndexError: every cell runs even when some fail, and the
// reported error is deterministically the lowest-index one.
func TestRunLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		errAt := func(i int) error { return fmt.Errorf("cell %d failed", i) }
		err := Run(workers, 20, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 3 || i == 19 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3's", workers, err)
		}
		if ran.Load() != 20 {
			t.Errorf("workers=%d: ran %d cells, want all 20", workers, ran.Load())
		}
	}
}

func TestMapOrderAndPartialResults(t *testing.T) {
	in := []string{"a", "bb", "ccc", "dddd"}
	out, err := Map(8, in, func(i int, s string) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return len(s), nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	want := []int{1, 2, 0, 4} // failed cell keeps the zero value
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

// TestRunIsConcurrent proves workers > 1 really runs cells concurrently:
// two cells rendezvous with each other, which can only succeed if both are
// in flight at once.
func TestRunIsConcurrent(t *testing.T) {
	ch := make(chan int)
	err := Run(2, 2, func(i int) error {
		select {
		case ch <- i:
		case <-ch:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("cell %d: no rendezvous — cells are not concurrent", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(8); got != 8 {
		t.Errorf("Workers(8) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	for _, n := range []int{0, -3} {
		if got := Workers(n); got != runtime.NumCPU() {
			t.Errorf("Workers(%d) = %d, want NumCPU=%d", n, got, runtime.NumCPU())
		}
	}
}

// TestCellSeed pins the derivation: stable across runs, sensitive to both
// the base seed and the cell id, and never colliding across a small grid.
func TestCellSeed(t *testing.T) {
	if a, b := CellSeed(42, "nic/strict/r=0.01"), CellSeed(42, "nic/strict/r=0.01"); a != b {
		t.Error("CellSeed not a pure function")
	}
	if CellSeed(42, "a") == CellSeed(43, "a") {
		t.Error("base seed ignored")
	}
	if CellSeed(42, "a") == CellSeed(42, "b") {
		t.Error("cell id ignored")
	}
	seen := map[uint64]string{}
	for mode := 0; mode < 4; mode++ {
		for rate := 0; rate < 8; rate++ {
			id := fmt.Sprintf("nic/mode%d/r=%d", mode, rate)
			s := CellSeed(1, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %q and %q", prev, id)
			}
			seen[s] = id
		}
	}
}
