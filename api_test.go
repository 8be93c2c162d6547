package pmihp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// apiDecl is one top-level func, method, type, var or const of a non-test
// file: its package directory, its package-qualified key and its name.
type apiDecl struct{ pkg, key, name string }

// apiScan is one parse of every non-test .go file under internal/, cmd/,
// examples/ and perfbench/.
type apiScan struct {
	decls []apiDecl
	// uses counts each identifier's occurrences outside top-level
	// declaration names, over all the files; pkgUses counts them per
	// package directory.
	uses    map[string]int
	pkgUses map[string]map[string]int
}

var scanModule = sync.OnceValues(func() (*apiScan, error) {
	s := &apiScan{uses: map[string]int{}, pkgUses: map[string]map[string]int{}}
	fset := token.NewFileSet()
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
			note := func(id *ast.Ident, key string) {
				declared[id] = true
				s.decls = append(s.decls, apiDecl{pkg, pkg + "." + key, id.Name})
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
			if s.pkgUses[pkg] == nil {
				s.pkgUses[pkg] = map[string]int{}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					s.uses[id.Name]++
					s.pkgUses[pkg][id.Name]++
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
})

// reportOffenders fails t once per key, in sorted order.
func reportOffenders(t *testing.T, offenders []string, why string) {
	t.Helper()
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s %s", o, why)
	}
}

// TestNoTestOnlyExports fails on every exported top-level func, method,
// type, var or const under internal/ whose identifier appears in no
// non-test Go file of the module, the examples or perfbench/ except as
// its own declaration. Such a name is API that only tests call: delete
// it, or move it into its package's _test.go.
func TestNoTestOnlyExports(t *testing.T) {
	s, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	for _, d := range s.decls {
		if !ast.IsExported(d.name) || !strings.HasPrefix(d.pkg, "internal/") || strings.HasPrefix(d.pkg, "internal/integration") {
			continue
		}
		if s.uses[d.name] == 0 && !sharedTestAPI[d.key] {
			offenders = append(offenders, d.key)
		}
	}
	reportOffenders(t, offenders, "is exported but no non-test code uses it")
}

// TestNoUnusedUnexported fails on every unexported top-level func,
// method, type, var or const under internal/, cmd/ or examples/ whose
// identifier appears in no non-test file of its own package except as
// its own declaration. Such code is dead, or only tests call it: delete
// it, or move it into its package's _test.go. Uses count per package, so
// one package's helper cannot hide behind another's of the same name.
func TestNoUnusedUnexported(t *testing.T) {
	s, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	for _, d := range s.decls {
		if ast.IsExported(d.name) || strings.HasPrefix(d.pkg, "perfbench") {
			continue
		}
		switch d.name {
		case "_", "init", "main":
			continue
		}
		if s.pkgUses[d.pkg][d.name] == 0 {
			offenders = append(offenders, d.key)
		}
	}
	reportOffenders(t, offenders, "is unexported but no non-test code of its package uses it")
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
