package iova

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// insertRange is a test helper adding [lo,hi] to the tree.
func insertRange(t *tree, lo, hi uint64) *node {
	n := &node{pfnLo: lo, pfnHi: hi}
	t.insert(n)
	return n
}

func TestTreeInsertFindErase(t *testing.T) {
	var tr tree
	n1 := insertRange(&tr, 10, 19)
	n2 := insertRange(&tr, 30, 39)
	n3 := insertRange(&tr, 20, 29)

	if tr.size != 3 {
		t.Fatalf("size = %d", tr.size)
	}
	if tr.checkInvariants() == -1 {
		t.Fatal("invariants violated after inserts")
	}
	if got, _ := tr.find(15); got != n1 {
		t.Errorf("find(15) = %v", got)
	}
	if got, _ := tr.find(29); got != n3 {
		t.Errorf("find(29) = %v", got)
	}
	if got, _ := tr.find(40); got != nil {
		t.Errorf("find(40) = %v, want nil", got)
	}
	tr.erase(n2)
	if got, _ := tr.find(35); got != nil {
		t.Error("erased range still found")
	}
	if tr.checkInvariants() == -1 {
		t.Fatal("invariants violated after erase")
	}
	if tr.size != 2 {
		t.Errorf("size = %d after erase", tr.size)
	}
}

func TestTreeTraversal(t *testing.T) {
	var tr tree
	var nodes []*node
	for _, lo := range []uint64{50, 10, 30, 70, 20, 60, 40} {
		nodes = append(nodes, insertRange(&tr, lo, lo+5))
	}
	_ = nodes
	// last, then walk prev to the smallest.
	var got []uint64
	for n := tr.last(); n != nil; n = tr.prev(n) {
		got = append(got, n.pfnLo)
	}
	want := []uint64{70, 60, 50, 40, 30, 20, 10}
	if len(got) != len(want) {
		t.Fatalf("prev walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prev walk = %v, want %v", got, want)
		}
	}
	// next from smallest.
	var fwd []uint64
	n, _ := tr.find(10)
	for ; n != nil; n = tr.next(n) {
		fwd = append(fwd, n.pfnLo)
	}
	for i := range want {
		if fwd[i] != want[len(want)-1-i] {
			t.Fatalf("next walk = %v", fwd)
		}
	}
}

func TestTreeEmpty(t *testing.T) {
	var tr tree
	if tr.last() != nil {
		t.Error("last of empty tree != nil")
	}
	if got, _ := tr.find(5); got != nil {
		t.Error("find in empty tree != nil")
	}
	if tr.checkInvariants() == -1 {
		t.Error("empty tree fails invariants")
	}
}

func TestTreeVisitCounting(t *testing.T) {
	var tr tree
	for i := uint64(0); i < 64; i++ {
		insertRange(&tr, i*10, i*10+5)
	}
	_, v := tr.find(635)
	if v == 0 || v > 10 {
		t.Errorf("find visits = %d, want O(log 64)", v)
	}
}

// Property: random insert/erase sequences preserve RB invariants and agree
// with a sorted-slice reference model.
func TestTreeRandomizedAgainstReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr tree
		ref := map[uint64]*node{} // pfnLo -> node
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 || len(ref) == 0 {
				lo := uint64(rng.Intn(10000)) * 10
				if _, dup := ref[lo]; dup {
					continue
				}
				ref[lo] = insertRange(&tr, lo, lo+9)
			} else {
				// Erase a random reference element.
				keys := make([]uint64, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				k := keys[rng.Intn(len(keys))]
				tr.erase(ref[k])
				delete(ref, k)
			}
			if tr.checkInvariants() == -1 {
				return false
			}
			if tr.size != len(ref) {
				return false
			}
		}
		// Full in-order scan must equal the sorted reference keys.
		var keys []uint64
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := len(keys) - 1
		for n := tr.last(); n != nil; n = tr.prev(n) {
			if i < 0 || n.pfnLo != keys[i] {
				return false
			}
			i--
		}
		return i == -1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// prev returns the in-order predecessor of n, or nil: the kernel's
// rb_prev, one touch per call. The reference walk (walk_test.go) and the
// traversal tests step through it.
func (t *tree) prev(n *node) *node {
	t.touch()
	if n.left != nil {
		n = n.left
		for n.right != nil {
			n = n.right
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.left {
		n = p
		p = p.parent
	}
	return p
}
