package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// LoadFixture loads a hermetic GOPATH-style source tree rooted at
// srcRoot: every directory containing .go files is a package whose
// import path is its path relative to srcRoot. Stub packages named like
// standard-library paths ("fmt", "sync", "time") stand in for the real
// ones, so analyzer unit tests never touch GOROOT and stay fast and
// hermetic. Packages whose path is modulePath or lives under it are
// treated as module packages and analyzed.
func LoadFixture(srcRoot, modulePath string) (*Program, error) {
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		Packages:   map[string]*Package{},
	}
	dirs := map[string][]string{} // import path -> files
	err := filepath.Walk(srcRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(srcRoot, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		dirs[ip] = append(dirs[ip], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Parse everything up front so imports are known for ordering.
	parsed := map[string]*Package{}
	imports := map[string][]string{}
	for ip, files := range dirs {
		sort.Strings(files)
		pkg := &Package{
			Path:     ip,
			Standard: !isModulePath(ip, modulePath),
			InModule: isModulePath(ip, modulePath),
		}
		for _, filename := range files {
			file, err := parser.ParseFile(prog.Fset, filename, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, file)
			pkg.Filenames = append(pkg.Filenames, filename)
			for _, spec := range file.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				imports[ip] = append(imports[ip], path)
			}
		}
		parsed[ip] = pkg
	}

	// Dependency-order the packages (imports first).
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("fixture import cycle at %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		for _, dep := range imports[ip] {
			if _, ok := parsed[dep]; !ok {
				return fmt.Errorf("fixture package %s imports %s, which has no stub under %s", ip, dep, srcRoot)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	var roots []string
	for ip := range parsed {
		roots = append(roots, ip)
	}
	sort.Strings(roots)
	for _, ip := range roots {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	for _, ip := range order {
		pkg := parsed[ip]
		var typeErrs []string
		conf := types.Config{
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
			Importer: fixtureImporter{prog: prog},
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		tpkg, _ := conf.Check(ip, prog.Fset, pkg.Files, pkg.Info)
		pkg.Types = tpkg
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("fixture %s: %s", ip, strings.Join(typeErrs, "; "))
		}
		prog.Packages[ip] = pkg
		if pkg.InModule {
			prog.Module = append(prog.Module, pkg)
		}
	}
	prog.collectAnnotations()
	return prog, nil
}

func isModulePath(ip, modulePath string) bool {
	return ip == modulePath || strings.HasPrefix(ip, modulePath+"/")
}

type fixtureImporter struct {
	prog *Program
}

func (f fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := f.prog.Packages[path]; ok {
		return pkg.Types, nil
	}
	return nil, fmt.Errorf("fixture import %q not loaded", path)
}
