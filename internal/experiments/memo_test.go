package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// wantReused is how many cells each experiment of a full Quick RunAll takes
// from an earlier experiment of the same call: Table 2 all of Figure 12's,
// Table 1 four of Figure 7's stream cells, Figure S1 intremap's seven mlx
// 4-core remap-off cells, and §5.1 Figure 12's mlx/rr/none. Every other
// experiment reuses none.
var wantReused = map[string]int{"table2": 70, "table1": 4, "scalability": 7, "methodology": 1}

// checkReused pins wantReused on a full Quick RunAll. Two tests call it on
// their own RunAll, so a memo that outlived its call would fail the second.
func checkReused(t *testing.T, results []RunResult) {
	t.Helper()
	for _, r := range results {
		if r.Reused != wantReused[r.Experiment.ID] {
			t.Errorf("%s reused %d cells, want %d", r.Experiment.ID, r.Reused, wantReused[r.Experiment.ID])
		}
	}
}

// TestCellMemoConcurrent calls one memo from several goroutines on
// overlapping keys: every lookup returns its own key's result, a failed
// cell is never stored, a key that differs in one field or in the runner's
// name is its own cell, and once every key is stored each lookup is a hit
// that runs nothing.
func TestCellMemoConcurrent(t *testing.T) {
	type args struct{ k, salt int }
	const (
		keys       = 24
		goroutines = 8
		rounds     = 3
		failKey    = 7
	)
	errCell := errors.New("cell failed")
	var runs [2][keys]atomic.Int32 // by salt, then k
	square := func(a args) (int, error) {
		runs[a.salt][a.k].Add(1)
		if a.k == failKey {
			return 0, errCell
		}
		return a.k*a.k + a.salt, nil
	}
	check := func(m *cellMemo, a args) {
		got, err := memoized(m, "square", a, square)
		switch {
		case a.k == failKey && !errors.Is(err, errCell):
			t.Errorf("%+v: err %v, want the cell's failure", a, err)
		case a.k != failKey && (err != nil || got != a.k*a.k+a.salt):
			t.Errorf("%+v: got %d, %v; want %d", a, got, err, a.k*a.k+a.salt)
		}
	}

	m := newCellMemo()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					// Each goroutine walks the keys from its own offset, so
					// lookups of one key overlap across goroutines.
					check(m, args{k: (i + 5*g) % keys, salt: (g + r) % 2})
				}
			}
		}()
	}
	wg.Wait()

	calls, computed := goroutines*rounds*keys, 0
	for salt := range runs {
		for k := range runs[salt] {
			n := int(runs[salt][k].Load())
			if k != failKey && n == 0 {
				t.Errorf("salt %d key %d never ran", salt, k)
			}
			computed += n
		}
	}
	if got := m.reused(); got != calls-computed {
		t.Errorf("%d lookups ran %d cells and reported %d hits, want %d", calls, computed, got, calls-computed)
	}

	hits := m.reused()
	for salt := 0; salt < 2; salt++ {
		for k := 0; k < keys; k++ {
			before := runs[salt][k].Load()
			check(m, args{k: k, salt: salt})
			want := int32(0)
			if k == failKey {
				want = 1 // a failure is not stored, so the lookup runs again
			}
			if ran := runs[salt][k].Load() - before; ran != want {
				t.Errorf("key %d salt %d: lookup ran %d cells, want %d", k, salt, ran, want)
			}
		}
	}
	if got, want := m.reused()-hits, 2*(keys-1); got != want {
		t.Errorf("second pass: %d hits, want %d", got, want)
	}

	// The runner's name is part of the key.
	before := runs[0][1].Load()
	if _, err := memoized(m, "square-again", args{k: 1}, square); err != nil || runs[0][1].Load() != before+1 {
		t.Errorf("a second runner with equal arguments reused the first runner's cell")
	}

	// A Config built outside RunAll has no memo, so every lookup runs.
	if Serial(Quick).memo != nil {
		t.Fatal("Serial carries a cell memo")
	}
	before = runs[0][2].Load()
	for i := 0; i < 3; i++ {
		check(nil, args{k: 2})
	}
	if ran := runs[0][2].Load() - before; ran != 3 {
		t.Errorf("nil memo: 3 lookups ran %d cells, want 3", ran)
	}
}
