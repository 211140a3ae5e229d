package experiments

import (
	"sync"

	"riommu/internal/device"
	"riommu/internal/multicore"
	"riommu/internal/sim"
	"riommu/internal/workload"
)

// cellMemo holds the result of every memoized cell one RunAll call has
// computed. A cell is a pure function of its runner and the runner's
// arguments, so an experiment that needs a cell an earlier experiment of
// the same call already ran takes the stored result instead of building,
// running and tearing down the same world again. Only result values are
// stored, never a world.
type cellMemo struct {
	mu    sync.Mutex
	cells map[any]any
	hits  int
}

func newCellMemo() *cellMemo { return &cellMemo{cells: map[any]any{}} }

// reused returns how many lookups the memo has answered so far.
func (m *cellMemo) reused() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// cellKey is one memoized cell's identity: its runner's name and every
// argument the runner takes, as whole values. A field added to an options
// struct is part of the key without any edit here, and one whose type is
// not comparable fails to compile.
type cellKey[A comparable] struct {
	runner string
	args   A
}

// memoized returns run(args), computing it at most once per memo: a
// successful result is stored under (runner, args) and returned to every
// later lookup. A failed cell is not stored. A nil memo always runs, so a
// Config built outside RunAll computes every cell. Two goroutines that miss
// on the same key both run it; the cell is pure, so either result is the
// stored one.
func memoized[A comparable, R any](m *cellMemo, runner string, args A, run func(A) (R, error)) (R, error) {
	if m == nil {
		return run(args)
	}
	key := cellKey[A]{runner: runner, args: args}
	m.mu.Lock()
	v, ok := m.cells[key]
	if ok {
		m.hits++
	}
	m.mu.Unlock()
	if ok {
		return v.(R), nil
	}
	r, err := run(args)
	if err == nil {
		m.mu.Lock()
		m.cells[key] = r
		m.mu.Unlock()
	}
	return r, err
}

// nicArgs are the arguments of a single-NIC workload runner.
type nicArgs[O comparable] struct {
	mode sim.Mode
	nic  device.NICProfile
	opts O
}

// nicRunner routes a single-NIC workload runner through the Config's memo
// under name.
func nicRunner[O comparable](name string, run func(sim.Mode, device.NICProfile, O) (workload.Result, error)) func(Config, sim.Mode, device.NICProfile, O) (workload.Result, error) {
	return func(cfg Config, m sim.Mode, nic device.NICProfile, opts O) (workload.Result, error) {
		return memoized(cfg.memo, name, nicArgs[O]{mode: m, nic: nic, opts: opts}, func(a nicArgs[O]) (workload.Result, error) {
			return run(a.mode, a.nic, a.opts)
		})
	}
}

// The memoized cell runners. Experiments whose cells repeat another
// experiment's call these instead of the workload and multicore functions.
var (
	netperfStream = nicRunner("workload.NetperfStream", workload.NetperfStream)
	netperfRR     = nicRunner("workload.NetperfRR", workload.NetperfRR)
	apache        = nicRunner("workload.Apache", workload.Apache)
	memcached     = nicRunner("workload.Memcached", workload.Memcached)
)

// runMulticore is multicore.Run through the Config's memo: Params holds
// every input of a scale-out run.
func runMulticore(cfg Config, p multicore.Params) (multicore.Result, error) {
	return memoized(cfg.memo, "multicore.Run", p, multicore.Run)
}
