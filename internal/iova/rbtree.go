// Package iova implements the two IOVA allocators the paper evaluates:
//
//   - LinuxAllocator: a faithful reproduction of the Linux 3.4 kernel's IOVA
//     allocator (drivers/iommu/iova.c as profiled by the paper): a red-black
//     tree of allocated ranges, top-down allocation below a 32-bit limit with
//     the cached32_node optimization. The allocator exhibits the paper's
//     "nontrivial pathology" — the gap search regularly walks linearly over
//     the live ranges — by construction, because its allocation decisions
//     and cached-node rules are the kernel's.
//
//   - ConstAllocator: the authors' constant-time allocator (strict+/defer+
//     modes; Malka et al., FAST'15): freed ranges are kept in the tree and
//     recycled through a free list, making allocation O(1) at the cost of a
//     fuller tree (and hence a slightly slower unmap-time lookup), matching
//     Table 1's strict+ column.
//
// Allocation costs are charged to the virtual clock per node the kernel's
// algorithm visits, so the asymptotic behaviour is reproduced rather than
// assumed. Tree lookups, inserts and erases are real and charge the nodes
// they touch. The Linux gap search is not repeated on the host: the host
// finds the gap in a page bitmap, while the virtual clock still charges
// every node of the kernel's rb_prev walk.
package iova

// node is a red-black tree node describing one allocated IOVA range
// [pfnLo, pfnHi] in page-frame-number units.
type node struct {
	pfnLo, pfnHi uint64
	left, right  *node
	parent       *node
	red          bool
	free         bool // ConstAllocator: range is on the free list, not live
}

// nodeArena hands out tree nodes in chunks, so steady allocation churn costs
// one bump increment per node instead of one heap allocation. Nodes are never
// returned to the arena; allocators that erase nodes recycle them directly.
type nodeArena struct {
	chunk []node
}

const arenaChunk = 64

func (ar *nodeArena) get() *node {
	if len(ar.chunk) == 0 {
		ar.chunk = make([]node, arenaChunk)
	}
	n := &ar.chunk[0]
	ar.chunk = ar.chunk[1:]
	return n
}

// tree is an intrusive red-black tree of non-overlapping IOVA ranges, sorted
// by pfnLo. It counts node touches so callers can charge cycle costs
// proportional to the work the real kernel would do.
type tree struct {
	root   *node
	size   int
	visits uint64 // node touches since last takeVisits
}

// takeVisits returns and resets the touch counter.
func (t *tree) takeVisits() uint64 {
	v := t.visits
	t.visits = 0
	return v
}

func (t *tree) touch() { t.visits++ }

// last returns the node with the greatest pfnLo, or nil.
func (t *tree) last() *node {
	n := t.root
	if n == nil {
		return nil
	}
	for n.right != nil {
		t.touch()
		n = n.right
	}
	t.touch()
	return n
}

// next returns the in-order successor of n, or nil.
func (t *tree) next(n *node) *node {
	t.touch()
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.right {
		n = p
		p = p.parent
	}
	return p
}

// find returns the node whose range contains pfn, or nil.
func (t *tree) find(pfn uint64) *node {
	n := t.root
	for n != nil {
		t.touch()
		switch {
		case pfn < n.pfnLo:
			n = n.left
		case pfn > n.pfnHi:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// insert adds n to the tree, keyed by pfnLo, and rebalances.
func (t *tree) insert(n *node) {
	n.left, n.right, n.parent = nil, nil, nil
	n.red = true
	var parent *node
	link := &t.root
	for *link != nil {
		parent = *link
		t.touch()
		if n.pfnLo < parent.pfnLo {
			link = &parent.left
		} else {
			link = &parent.right
		}
	}
	n.parent = parent
	*link = n
	t.size++
	t.fixInsert(n)
}

func (t *tree) rotateLeft(x *node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *tree) rotateRight(x *node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *tree) fixInsert(z *node) {
	for z.parent != nil && z.parent.red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.red {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if u != nil && u.red {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateLeft(gp)
			}
		}
	}
	t.root.red = false
}

// erase removes n from the tree and rebalances (CLRS RB-DELETE).
func (t *tree) erase(n *node) {
	t.size--
	var x, xParent *node
	y := n
	yRed := y.red
	switch {
	case n.left == nil:
		x = n.right
		xParent = n.parent
		t.transplant(n, n.right)
	case n.right == nil:
		x = n.left
		xParent = n.parent
		t.transplant(n, n.left)
	default:
		y = n.right
		for y.left != nil {
			y = y.left
		}
		yRed = y.red
		x = y.right
		if y.parent == n {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = n.right
			y.right.parent = y
		}
		t.transplant(n, y)
		y.left = n.left
		y.left.parent = y
		y.red = n.red
	}
	if !yRed {
		t.fixDelete(x, xParent)
	}
	n.left, n.right, n.parent = nil, nil, nil
}

func (t *tree) transplant(u, v *node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *tree) fixDelete(x, parent *node) {
	for x != t.root && (x == nil || !x.red) {
		if x == parent.left {
			w := parent.right
			if w.red {
				w.red = false
				parent.red = true
				t.rotateLeft(parent)
				w = parent.right
			}
			if (w.left == nil || !w.left.red) && (w.right == nil || !w.right.red) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if w.right == nil || !w.right.red {
					if w.left != nil {
						w.left.red = false
					}
					w.red = true
					t.rotateRight(w)
					w = parent.right
				}
				w.red = parent.red
				parent.red = false
				if w.right != nil {
					w.right.red = false
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w.red {
				w.red = false
				parent.red = true
				t.rotateRight(parent)
				w = parent.left
			}
			if (w.left == nil || !w.left.red) && (w.right == nil || !w.right.red) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if w.left == nil || !w.left.red {
					if w.right != nil {
						w.right.red = false
					}
					w.red = true
					t.rotateLeft(w)
					w = parent.left
				}
				w.red = parent.red
				parent.red = false
				if w.left != nil {
					w.left.red = false
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.red = false
	}
}

// checkInvariants validates the red-black and ordering invariants, returning
// the black height or -1 on violation. Used by tests only.
func (t *tree) checkInvariants() int {
	if t.root != nil && t.root.red {
		return -1
	}
	return blackHeight(t.root, 0, 1<<63)
}

func blackHeight(n *node, lo, hi uint64) int {
	if n == nil {
		return 1
	}
	if n.pfnLo < lo || n.pfnHi >= hi || n.pfnLo > n.pfnHi {
		return -1
	}
	if n.red && ((n.left != nil && n.left.red) || (n.right != nil && n.right.red)) {
		return -1
	}
	l := blackHeight(n.left, lo, n.pfnLo)
	r := blackHeight(n.right, n.pfnHi+1, hi)
	if l == -1 || r == -1 || l != r {
		return -1
	}
	if !n.red {
		l++
	}
	return l
}
