package riommu

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// reachCallers are the trees whose non-test code counts as a caller: the
// library itself, the commands, the examples and the benchmark module.
var reachCallers = []string{"internal", "cmd", "examples", "perfbench"}

// reachAllowed names the functions a program does not reach but a test or
// harness needs. Each key is "package.Func" or "package.(*Type).Method"
// (package is the last element of the import path); each value says who
// calls it.
var reachAllowed = map[string]string{
	"check.RunWorkload":               "make equivalence: the mode-equivalence suites in internal/check run every mode through it",
	"faults.(*Engine).ScheduleBytes":  "the fault-determinism tests and FuzzFaultDeterminism compare two runs' schedules with it",
	"intremap.(*Source).Pending":      "TestRecoverDropsPendingInterrupts checks the interrupt latch before and after a queue reset",
	"iova.(*tree).checkInvariants":    "the red-black tree tests check the tree's invariants after every operation",
	"mem.(*PhysMem).FreeFrames":       "the frame-leak checks of the mem, ring and core tests",
	"mem.(*PhysMem).Pinned":           "the pin-leak checks of the mem, baseline and core tests",
	"tenant.(*Domain).Stage2":         "the tenant tests and FuzzStage2Walk probe stage 2 through it without a guest device",
	"tenant.(*Host).Owner":            "the tenant tests and FuzzStage2Walk check the host's frame ledger through it",
	"traffic.(*Engine).Churn":         "FuzzConnectionChurn steps the engine one churn phase at a time",
	"traffic.(*Engine).FlushDeferred": "FuzzConnectionChurn drains deferred invalidations between its steps",
}

// reachExempt are method names called through an interface declared
// outside the module: fmt's Stringer, error, and math/rand's Source64.
var reachExempt = map[string]bool{"String": true, "Error": true, "Int63": true, "Seed": true, "Uint64": true}

// unreached is one function or method that no caller references.
type unreached struct {
	name string // "package.Func" or "package.(*Type).Method"
	pos  token.Position
}

// TestInternalFuncsReached fails on every function or method declared in
// non-test code under internal/ that no non-test code under internal/,
// cmd/, examples/ or perfbench/ refers to from outside its own declaration.
// Methods named by an interface (called through it), one-statement getters
// of receiver state and the reasoned entries of reachAllowed are exempt.
func TestInternalFuncsReached(t *testing.T) {
	t.Cleanup(drainFinalizers)
	got, scanned, err := findUnreached(".", reachCallers)
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("found no function under internal/; the scan is not seeing the code")
	}
	if len(reachAllowed) > 15 {
		t.Errorf("reachAllowed has %d entries; keep it to at most 15", len(reachAllowed))
	}
	flagged := map[string]bool{}
	for _, u := range got {
		flagged[u.name] = true
		if reachAllowed[u.name] == "" {
			t.Errorf("%s: %s is reached by no program; delete it, or allowlist it with the test or harness that calls it", u.pos, u.name)
		}
	}
	for name := range reachAllowed { // maporder: each entry is checked on its own
		if !flagged[name] {
			t.Errorf("reachAllowed lists %s, which a program now reaches or which no longer exists; drop the entry", name)
		}
	}
}

// TestReachFixture runs the analysis over testdata/reach, whose lib package
// holds one function only its test calls, one getter, one interface method
// and one function its cmd package calls: exactly the first is flagged.
func TestReachFixture(t *testing.T) {
	t.Cleanup(drainFinalizers)
	root := filepath.Join("testdata", "reach")
	got, scanned, err := findUnreached(root, []string{"internal", "cmd"})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 4 {
		t.Errorf("scanned %d functions, want 4", scanned)
	}
	if len(got) != 1 || got[0].name != "lib.OnlyTested" {
		t.Errorf("flagged %v, want only lib.OnlyTested", got)
	}
}

// drainFinalizers collects the garbage a scan leaves and waits until the
// finalizers it queued have run. The standard-library importer starts a
// `go list` process for each package it has not seen, and their finalizers
// would otherwise run inside the process-wide allocation count of a later
// test: TestHotPathAllocs' traffic period read 233 against its ceiling of
// 232 in 2 of 20 runs after this scan, in 1 of 55 with the drain, and in 1
// of 30 before the scan existed. The finalizer goroutine runs one
// collection's batch before the next, so the second sentinel runs after
// everything the first collection queued.
func drainFinalizers() {
	for range 2 {
		done := make(chan struct{})
		runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// findUnreached type-checks every package in root's callers subtrees and
// returns the functions and methods declared in root/internal that are
// neither referenced from outside their own declaration nor exempt, sorted
// by position, with the number of functions it looked at.
func findUnreached(root string, callers []string) ([]unreached, int, error) {
	im := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*srcPackage{}, root: root}
	var decls, pkgs []*srcPackage
	for _, sub := range callers {
		ps, err := im.loadTree(sub)
		if err != nil {
			return nil, 0, err
		}
		if sub == "internal" {
			decls = ps
		}
		pkgs = append(pkgs, ps...)
	}

	// Every method name an interface in the scanned code declares.
	ifaceNames := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := p.info.TypeOf(it).Underlying().(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceNames[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}

	type candidate struct {
		decl *ast.FuncDecl
		name string
	}
	cands := map[*types.Func]candidate{}
	scanned := 0
	for _, p := range decls {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				scanned++
				fn := p.info.Defs[fd.Name].(*types.Func)
				if fd.Recv != nil && (ifaceNames[fd.Name.Name] || reachExempt[fd.Name.Name] || isGetter(fd)) {
					continue
				}
				cands[fn] = candidate{fd, funcName(fn)}
			}
		}
	}

	for _, p := range pkgs {
		for id, obj := range p.info.Uses { // maporder: marks a set; the result is sorted below
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			c, ok := cands[fn.Origin()]
			if !ok || (id.Pos() >= c.decl.Pos() && id.Pos() < c.decl.End()) {
				continue
			}
			delete(cands, fn.Origin())
		}
	}

	var out []unreached
	for _, c := range cands { // maporder: sorted below
		out = append(out, unreached{c.name, im.fset.Position(c.decl.Pos())})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out, scanned, nil
}

// funcName renders fn as "package.Func" or "package.(*Type).Method".
func funcName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if ptr, ok := recv.(*types.Pointer); ok {
		recv, star = ptr.Elem(), "*"
	}
	name := recv.(*types.Named).Obj().Name()
	if star != "" {
		name = "(*" + name + ")"
	}
	return fn.Pkg().Name() + "." + name + "." + fn.Name()
}

// isGetter reports whether fd's body is a single return of receiver state:
// each result is x.f, x.f[i] or len(x.f), where x is the receiver and f
// may be a chain of fields.
func isGetter(fd *ast.FuncDecl) bool {
	if fd.Body == nil || len(fd.Body.List) != 1 || len(fd.Recv.List[0].Names) == 0 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	for _, e := range ret.Results {
		if call, ok := e.(*ast.CallExpr); ok {
			if fun, ok := call.Fun.(*ast.Ident); !ok || fun.Name != "len" || len(call.Args) != 1 {
				return false
			}
			e = call.Args[0]
		} else if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		for {
			inner, ok := sel.X.(*ast.SelectorExpr)
			if !ok {
				break
			}
			sel = inner
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != fd.Recv.List[0].Names[0].Name {
			return false
		}
	}
	return true
}
