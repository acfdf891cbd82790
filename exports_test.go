// The exports guard: every exported identifier declared under internal/
// must be referenced by some non-test file of the module or of perfbench/,
// or be listed with a reason in testdata/unreferenced_exports.txt. The
// list may only shrink: a listed name that is referenced again, or gone,
// fails the test too, so the entry is deleted with the change that frees
// it.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedExports type-checks the non-test Go files of every package
// under root (build constraints honoured; testdata, hidden and
// underscore-prefixed directories skipped) and returns the exported
// package-level identifiers and exported methods declared under
// root/internal that no non-test file references, as sorted "pkg.Name" or
// "pkg.Type.Method". An exported method also counts as referenced when
// an interface method of the same name is. mods maps each directory
// holding a go.mod, relative to root, to its module path; "." is the
// root module.
func unreferencedExports(root string, mods map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, p)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		// The innermost module directory containing rel owns it.
		mod := "."
		for dir := range mods {
			if (rel == dir || strings.HasPrefix(rel, dir+"/")) && len(dir) > len(mod) {
				mod = dir
			}
		}
		pkgs[path.Join(mods[mod], strings.TrimPrefix(rel, mod))] = files
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			if pkg == nil {
				return nil, fmt.Errorf("import cycle through %s", ip)
			}
			return pkg, nil
		}
		files, ok := pkgs[ip]
		if !ok {
			return std.Import(ip)
		}
		checked[ip] = nil
		pkg, err := (&types.Config{Importer: imp}).Check(ip, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[ip] = pkg
		return pkg, nil
	}
	ips := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	for _, obj := range info.Uses {
		// A use of a generic type's method or field names its
		// instantiation; the declaration is the origin.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[fn.Name()] = true
			}
		}
	}

	internal := mods["."] + "/internal/"
	var out []string
	for _, ip := range ips {
		if !strings.HasPrefix(ip, internal) {
			continue
		}
		short := strings.TrimPrefix(ip, internal)
		scope := checked[ip].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !ifaceMethods[m.Name()] {
					out = append(out, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses the non-test Go files of dir that the default build
// context selects.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// readAllowlist returns the names of the "pkg.Name reason" lines; blank
// lines and lines starting with '#' are skipped. A line without a reason,
// or a name listed twice, is an error.
func readAllowlist(file string) (map[string]bool, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, name)
		}
		if list[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", file, n, name)
		}
		list[name] = true
	}
	return list, sc.Err()
}

// TestUnreferencedExports fails on an exported identifier under internal/
// that no non-test file references and the allowlist does not name (delete
// it, wire it in, or list it with the planned consumer), and on an
// allowlisted name that is referenced again or gone (delete its line).
func TestUnreferencedExports(t *testing.T) {
	got, err := unreferencedExports(".", map[string]string{".": "deltasched", "perfbench": "deltasched/perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/unreferenced_exports.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range got {
		seen[name] = true
		if !allow[name] {
			t.Errorf("%s is exported but no non-test file references it: delete it, use it, or allowlist it with a reason", name)
		}
	}
	for name := range allow {
		if !seen[name] {
			t.Errorf("%s is allowlisted but is now referenced or gone: delete its line from testdata/unreferenced_exports.txt", name)
		}
	}
}

// TestUnreferencedExportsFixture pins what the checker finds on a small
// module: a function nothing references and one only a test references
// are reported; a method reached only through an interface and a function
// a main calls are not.
func TestUnreferencedExportsFixture(t *testing.T) {
	got, err := unreferencedExports("testdata/exportsfixture", map[string]string{".": "fixture"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Dead", "lib.TestOnly"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreferencedExports(fixture) = %q, want %q", got, want)
	}
}
