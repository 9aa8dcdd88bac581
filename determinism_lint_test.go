package rasengan

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoFloatAccumulationOverMaps keeps float reductions in a canonical
// order. Go randomizes map iteration order and float addition is not
// associative, so a sum accumulated while ranging over a map can differ in
// its last bits from run to run, and a solve payload with it. The test
// type-checks every non-test package of the module and rejects any
// assignment inside a `range` over a map that accumulates into a float or
// complex variable declared outside the loop (`+=`, `-=`, `*=`, `/=`, or
// `x = x op y`). Updating the element of the key being visited (`m[k] *=
// f`) is allowed: each element is touched once. Ranging over sorted keys
// is the fix.
func TestNoFloatAccumulationOverMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	modPath := "rasengan"
	dirs := map[string][]string{} // package dir -> non-test .go files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != "." {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgDirs []string
	for dir := range dirs {
		pkgDirs = append(pkgDirs, dir)
	}
	sort.Strings(pkgDirs)

	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	var findings []string
	for _, dir := range pkgDirs {
		var files []*ast.File
		for _, path := range dirs[dir] {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		importPath := modPath
		if dir != "." {
			importPath += "/" + filepath.ToSlash(dir)
		}
		if _, err := conf.Check(importPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", importPath, err)
		}
		for _, f := range files {
			findings = append(findings, mapFloatAccumulations(fset, info, f)...)
		}
	}
	for _, msg := range findings {
		t.Error(msg)
	}
}

// mapFloatAccumulations returns one message per float accumulation inside
// a range over a map in f.
func mapFloatAccumulations(fset *token.FileSet, info *types.Info, f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := info.TypeOf(rs.X); t == nil {
			return true
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		var key types.Object
		if id, ok := rs.Key.(*ast.Ident); ok {
			key = info.ObjectOf(id)
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if !isFloatish(info.TypeOf(lhs)) || !outlivesIteration(info, lhs, rs, key) {
					continue
				}
				accum := false
				switch as.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					accum = true
				case token.ASSIGN:
					accum = i < len(as.Rhs) && mentions(info, as.Rhs[i], lhs)
				}
				if accum {
					out = append(out, fset.Position(as.Pos()).String()+": float accumulation inside a range over a map; range over sorted keys instead")
				}
			}
			return true
		})
		return true
	})
	return out
}

func isFloatish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// outlivesIteration reports whether lhs names storage that survives one
// iteration of rs: a variable declared outside the loop, a field, or an
// element other than the one of the visited key.
func outlivesIteration(info *types.Info, lhs ast.Expr, rs *ast.RangeStmt, key types.Object) bool {
	switch e := lhs.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End())
	case *ast.IndexExpr:
		id, ok := e.Index.(*ast.Ident)
		return !ok || key == nil || info.ObjectOf(id) != key
	case *ast.ParenExpr:
		return outlivesIteration(info, e.X, rs, key)
	default:
		return true
	}
}

// mentions reports whether expr reads the variable lhs names.
func mentions(info *types.Info, expr, lhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	target := info.ObjectOf(id)
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if x, ok := n.(*ast.Ident); ok && info.ObjectOf(x) == target {
			found = true
		}
		return !found
	})
	return found
}
