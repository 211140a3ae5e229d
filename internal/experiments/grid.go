package experiments

import "riommu/internal/parallel"

// Grid is an experiment's cell grid: the keys and their results in two flat
// slices, both in grid order. Results[i] is the cell of Keys[i].
type Grid[K comparable, R any] struct {
	Keys    []K
	Results []R
}

// runGrid computes cell(k) for every key on up to cfg.Workers workers and
// stores each result at its key's index, so the grid is the same for any
// worker count. Every cell runs even when one fails; the error is the
// lowest-index cell's. It is the package's only fan-out over cells.
func runGrid[K comparable, R any](cfg Config, keys []K, cell func(K) (R, error)) (Grid[K, R], error) {
	results, err := parallel.Map(cfg.Workers, keys, func(_ int, k K) (R, error) { return cell(k) })
	return Grid[K, R]{Keys: keys, Results: results}, err
}

// At returns the result of key k, or the zero R if k is not in the grid.
func (g Grid[K, R]) At(k K) R {
	for i, key := range g.Keys {
		if key == k {
			return g.Results[i]
		}
	}
	var zero R
	return zero
}

// cells emits one Cell of experiment exp per grid point, in grid order;
// cell names the point and lists its metrics.
func (g Grid[K, R]) cells(exp string, cell func(K, R) (string, map[string]float64)) []Cell {
	out := make([]Cell, len(g.Keys))
	for i, k := range g.Keys {
		id, metrics := cell(k, g.Results[i])
		out[i] = C(exp, id, metrics)
	}
	return out
}
