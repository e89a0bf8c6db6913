package hydra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// parseProduction parses the non-test Go files of the package in dir.
func parseProduction(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return fset, files
}

// funcName renders a declaration as Recv.Name (or Name for functions).
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// isCall reports whether n calls the builtin named name.
func isCall(n ast.Node, name string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

// TestFaultDeliveryStructure keeps data faults on the explicit-check path:
// Machine.Run holds the only recover in the simulator core, the
// per-instruction exec installs no defer, and the memory model never
// panics (an out-of-range access is the caller's bounds check to make).
func TestFaultDeliveryStructure(t *testing.T) {
	fset, files := parseProduction(t, ".")
	for _, f := range files {
		for _, decl := range f.Decls {
			owner := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				owner = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if isCall(n, "recover") && owner != "Machine.Run" {
					t.Errorf("%s: recover in %q; Machine.Run must hold the only one", fset.Position(n.Pos()), owner)
				}
				if _, ok := n.(*ast.DeferStmt); ok && owner == "Machine.exec" {
					t.Errorf("%s: defer in Machine.exec (runs once per simulated instruction)", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
	fset, files = parseProduction(t, filepath.Join("..", "mem"))
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if isCall(n, "panic") {
				t.Errorf("%s: panic in package mem; report faults through the caller's InRange check", fset.Position(n.Pos()))
			}
			return true
		})
	}
}
