package riommu

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mapOrderMark opens the comment that must sit on, or directly above, every
// range over a map in non-test code, followed by the reason the loop's
// outcome cannot depend on Go's randomised map iteration order (it sorts
// what it collects, or each iteration is independent of the others).
const mapOrderMark = "maporder:"

// srcImporter type-checks this module's packages from source and takes the
// standard library from the compiler's export data. An import path
// "riommu/p" is read from the directory p under root.
type srcImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*srcPackage
	root string
}

type srcPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if path != "riommu" && !strings.HasPrefix(path, "riommu/") {
		return im.std.Import(path)
	}
	p, err := im.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses the package's non-test files (honouring build constraints)
// and type-checks them, once per import path.
func (im *srcImporter) load(path string) (*srcPackage, error) {
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "riommu"), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &srcPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: im}
	if p.pkg, err = conf.Check(path, im.fset, p.files, p.info); err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// loadTree loads every package in the directory tree sub under im.root.
func (im *srcImporter) loadTree(sub string) ([]*srcPackage, error) {
	var pkgs []*srcPackage
	err := filepath.WalkDir(filepath.Join(im.root, sub), func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, err := build.Default.ImportDir(dir, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(im.root, dir)
		if err != nil {
			return err
		}
		p, err := im.load("riommu/" + filepath.ToSlash(rel))
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
}

// TestMapRangesAnnotated enforces deterministic output mechanically: every
// range over a map in the non-test packages under internal/ and cmd/ must
// carry a maporder: comment saying why iteration order cannot reach the
// simulator's output. A new unannotated map range fails here.
func TestMapRangesAnnotated(t *testing.T) {
	im := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*srcPackage{}, root: "."}
	ranges := 0
	for _, sub := range []string{"internal", "cmd"} {
		pkgs, err := im.loadTree(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for _, f := range p.files {
				ranges += checkMapRanges(t, im.fset, f, p.info)
			}
		}
	}
	if ranges == 0 {
		t.Fatal("found no range over a map; the scan is not seeing the code")
	}
}

// checkMapRanges reports every map range in f without a maporder: comment
// (with a reason after the mark) on its line or ending on the line above,
// and returns how many it saw.
func checkMapRanges(t *testing.T, fset *token.FileSet, f *ast.File, info *types.Info) int {
	marked := map[int]bool{}
	for _, cg := range f.Comments {
		text := cg.Text()
		if i := strings.Index(text, mapOrderMark); i >= 0 && strings.TrimSpace(text[i+len(mapOrderMark):]) != "" {
			marked[fset.Position(cg.End()).Line] = true
		}
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		rs, ok := node.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		n++
		pos := fset.Position(rs.For)
		if !marked[pos.Line] && !marked[pos.Line-1] {
			t.Errorf("%s: range over a map without a %q comment saying why its order cannot matter", pos, mapOrderMark)
		}
		return true
	})
	return n
}
