package difftest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mapRangePackages are the packages whose output must not depend on Go's
// randomized map iteration order: everything from bytecode to simulated
// cycles and wire bytes.
var mapRangePackages = []string{"jit", "analyzer", "cfg", "codec", "hydra"}

// orderInsensitive is the marker that admits a map range whose result does
// not depend on iteration order. It must sit in the comment line directly
// above the loop and state the reason: "// order-insensitive: <reason>".
const orderInsensitive = "order-insensitive:"

// TestNoUnorderedMapRange rejects every range over a map in the
// deterministic packages unless the loop only collects into a slice that
// the same block sorts right after (keys sorted first), or it carries the
// order-insensitive marker with a reason. Type information comes from
// go/types over the package sources, so ranges over named map types and
// map-valued expressions are caught too.
func TestNoUnorderedMapRange(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, name := range mapRangePackages {
		dir := filepath.Join("..", name)
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			var files []*ast.File
			for _, f := range p.Files {
				files = append(files, f)
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check("jrpm/internal/"+name, fset, files, info); err != nil {
				t.Fatalf("type-checking %s: %v", name, err)
			}
			for _, f := range files {
				for _, bad := range unorderedMapRanges(fset, f, info) {
					t.Errorf("%s: range over a map: sort the keys first or mark the loop %q with a reason",
						fset.Position(bad), "// "+orderInsensitive+" <why>")
				}
			}
		}
	}
}

// unorderedMapRanges returns the positions of the map ranges in f that are
// neither collect-then-sort loops nor marked order-insensitive.
func unorderedMapRanges(fset *token.FileSet, f *ast.File, info *types.Info) []token.Pos {
	marked := map[int]bool{} // lines directly below a marker comment
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, orderInsensitive); ok && strings.TrimSpace(rest) != "" {
				marked[fset.Position(c.End()).Line+1] = true
			}
		}
	}
	var bad []token.Pos
	check := func(list []ast.Stmt) {
		for i, st := range list {
			if l, ok := st.(*ast.LabeledStmt); ok {
				st = l.Stmt
			}
			rs, ok := st.(*ast.RangeStmt)
			if !ok {
				continue
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				continue
			}
			if marked[fset.Position(list[i].Pos()).Line] || sortedAfter(rs, list[i+1:]) {
				continue
			}
			bad = append(bad, rs.Pos())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			check(n.List)
		case *ast.CaseClause:
			check(n.Body)
		case *ast.CommClause:
			check(n.Body)
		}
		return true
	})
	return bad
}

// sortedAfter reports whether rs only appends to one slice (directly or
// under a plain if) and a later statement of the same block sorts it.
func sortedAfter(rs *ast.RangeStmt, rest []ast.Stmt) bool {
	target := ""
	var appendsOnly func(list []ast.Stmt) bool
	appendsOnly = func(list []ast.Stmt) bool {
		for _, st := range list {
			if is, ok := st.(*ast.IfStmt); ok && is.Init == nil && is.Else == nil {
				if !appendsOnly(is.Body.List) {
					return false
				}
				continue
			}
			as, ok := st.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return false
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return false
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
				return false
			}
			lhs := types.ExprString(as.Lhs[0])
			if types.ExprString(call.Args[0]) != lhs || (target != "" && target != lhs) {
				return false
			}
			target = lhs
		}
		return true
	}
	if !appendsOnly(rs.Body.List) {
		return false
	}
	if target == "" {
		return false
	}
	for _, st := range rest {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			continue
		}
		if types.ExprString(call.Args[0]) == target {
			return true
		}
	}
	return false
}
