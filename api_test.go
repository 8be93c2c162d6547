package pmihp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sharedTestAPI lists exported names that only tests call but that the
// tests of several packages share, so they cannot move into any one
// package's _test.go.
var sharedTestAPI = map[string]bool{
	"internal/mining.BruteForce":              true,
	"internal/mining.Result.FrequentOfSize":   true,
	"internal/txdb.DB.TIDOf":                  true,
	"internal/distmine.Daemon.ActiveSessions": true,
	"internal/itemset.Intersect":              true,
}

// interfaceMethods are method names that interfaces call without the
// name appearing at the call site.
var interfaceMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

// TestNoTestOnlyExports fails on every exported top-level func, method,
// type, var or const under internal/ whose identifier appears in no
// non-test Go file of the module, the examples or perfbench/ except as
// its own declaration. Such a name is API that only tests call: delete
// it, or move it into its package's _test.go.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier → occurrences outside top-level declaration names
	type decl struct{ key, name string }
	var decls []decl
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declared := map[*ast.Ident]bool{}
			pkg := filepath.ToSlash(filepath.Dir(path))
			exported := strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "internal/integration")
			note := func(id *ast.Ident, key string) {
				declared[id] = true
				if exported && id.IsExported() {
					decls = append(decls, decl{pkg + "." + key, id.Name})
				}
			}
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					key := dl.Name.Name
					if dl.Recv != nil {
						if interfaceMethods[key] {
							declared[dl.Name] = true
							continue
						}
						key = recvName(dl.Recv.List[0].Type) + "." + key
					}
					note(dl.Name, key)
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							note(spec.Name, spec.Name.Name)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								note(id, id.Name)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					uses[id.Name]++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var offenders []string
	for _, d := range decls {
		if uses[d.name] == 0 && !sharedTestAPI[d.key] {
			offenders = append(offenders, d.key)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s is exported but no non-test code uses it", o)
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
