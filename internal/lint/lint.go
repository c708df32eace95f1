// Package lint implements bsublint, a small analyzer driver plus the
// repo-specific analyzers that mechanically enforce the engine's
// invariants: claims settled exactly once (claimsettle), an
// allocation-free contact hot path (hotpathalloc), deterministic replay
// (determinism), no blocking I/O under locks (lockio), mutex
// acquisition in //bsub:lockrank order (lockorder), every goroutine
// tied to a shutdown path (lifecycle), no silently dropped wire errors
// (wireerr), and wire-derived lengths validated before use (wiretaint).
//
// The package is deliberately stdlib-only: packages are listed with
// `go list -json -deps`, parsed with go/parser, and type-checked with
// go/types in dependency order — in parallel waves, one wave per
// dependency depth. No golang.org/x/tools machinery is used, so the
// linter builds anywhere the repo builds.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Diagnostic is one finding, located at a position inside a module file.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's output format: file:line: analyzer: message.
// The filename is kept as loaded; callers may relativize Pos.Filename
// before printing.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: bsub/%s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one named check run over every module package it applies to.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters by package path relative to the module root
	// ("internal/engine", "cmd/livemesh", "" for the root package).
	// nil means the analyzer runs on every module package.
	Applies func(rel string) bool
	Run     func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Prog     *Program
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked package.
type Package struct {
	Path      string // import path
	Standard  bool   // GOROOT package (type-checked signatures only)
	InModule  bool   // belongs to the module under analysis
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
}

// Rel returns the package path relative to the module root, or the
// full path unchanged for non-module packages.
func (p *Package) Rel(modulePath string) string {
	if p.Path == modulePath {
		return ""
	}
	return strings.TrimPrefix(p.Path, modulePath+"/")
}

// Program is a fully loaded dependency closure plus cross-package facts.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Packages   map[string]*Package // by import path, full closure
	Module     []*Package          // module packages, dependency order

	// Hotpath and Coldpath record functions whose declarations carry a
	// //bsub:hotpath or //bsub:coldpath directive. Keyed by the
	// *types.Func object so identity survives cross-package lookups
	// within one type-checker universe.
	Hotpath  map[types.Object]bool
	Coldpath map[types.Object]bool

	// LockRanks records mutex fields annotated //bsub:lockrank N, the
	// declared acquisition order the lockorder analyzer enforces
	// (lower ranks are taken first). BadLockRanks holds malformed or
	// misplaced annotations, reported by lockorder in the owning
	// package.
	LockRanks    map[types.Object]LockRank
	BadLockRanks []badLockRank
}

// LockRank is one declared lock-order position.
type LockRank struct {
	Rank int
	Name string // display name, e.g. "Mesh.mu"
}

type badLockRank struct {
	pos token.Pos
	msg string
}

// collectAnnotations scans every module package for //bsub:hotpath and
// //bsub:coldpath directives attached to function declarations, and
// //bsub:lockrank directives attached to mutex fields.
func (prog *Program) collectAnnotations() {
	prog.Hotpath = map[types.Object]bool{}
	prog.Coldpath = map[types.Object]bool{}
	prog.LockRanks = map[types.Object]LockRank{}
	for _, pkg := range prog.Module {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Doc == nil {
						continue
					}
					obj := pkg.Info.Defs[decl.Name]
					if obj == nil {
						continue
					}
					// Directives are stripped by CommentGroup.Text, so
					// scan the raw comment list.
					for _, c := range decl.Doc.List {
						switch strings.TrimSpace(c.Text) {
						case "//bsub:hotpath":
							prog.Hotpath[obj] = true
						case "//bsub:coldpath":
							prog.Coldpath[obj] = true
						}
					}
				case *ast.GenDecl:
					prog.collectLockRanks(pkg, decl)
				}
			}
		}
	}
}

// collectLockRanks pulls //bsub:lockrank N directives off struct fields
// in one type declaration. The directive may sit in the field's doc
// comment or its trailing line comment; the field must be a sync.Mutex
// or sync.RWMutex and N a decimal integer, or the annotation is
// recorded as malformed.
func (prog *Program) collectLockRanks(pkg *Package, decl *ast.GenDecl) {
	if decl.Tok != token.TYPE {
		return
	}
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			arg, found := lockRankDirective(field)
			if !found {
				continue
			}
			rank, err := strconv.Atoi(arg)
			if err != nil {
				prog.BadLockRanks = append(prog.BadLockRanks, badLockRank{
					pos: field.Pos(),
					msg: fmt.Sprintf("malformed //bsub:lockrank %q: rank must be a decimal integer", arg),
				})
				continue
			}
			for _, name := range field.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				if !isNamedType(obj.Type(), "sync", "Mutex") && !isNamedType(obj.Type(), "sync", "RWMutex") {
					prog.BadLockRanks = append(prog.BadLockRanks, badLockRank{
						pos: name.Pos(),
						msg: fmt.Sprintf("//bsub:lockrank on %s.%s, which is not a sync.Mutex or sync.RWMutex", ts.Name.Name, name.Name),
					})
					continue
				}
				prog.LockRanks[obj] = LockRank{Rank: rank, Name: ts.Name.Name + "." + name.Name}
			}
		}
	}
}

// lockRankDirective extracts the argument of a //bsub:lockrank
// directive from a struct field's comments.
func lockRankDirective(field *ast.Field) (arg string, found bool) {
	for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, "//bsub:lockrank") {
				continue
			}
			return strings.TrimSpace(strings.TrimPrefix(text, "//bsub:lockrank")), true
		}
	}
	return "", false
}

// suppression is one //lint:ignore bsub/<name> reason directive. It
// suppresses findings of that analyzer on its own line and on the line
// immediately following it (covering both end-of-line and
// preceding-line comment placement).
type suppression struct {
	file     string
	line     int
	analyzer string
}

func collectSuppressions(fset *token.FileSet, pkg *Package) []suppression {
	var out []suppression
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:ignore ") {
					continue
				}
				fields := strings.Fields(text)
				// lint:ignore bsub/<name> <reason...> — a missing
				// reason keeps the directive inert, matching the
				// documented format strictly.
				if len(fields) < 3 || !strings.HasPrefix(fields[1], "bsub/") {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, suppression{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: strings.TrimPrefix(fields[1], "bsub/"),
				})
			}
		}
	}
	return out
}

// Run executes the analyzers over every module package each applies to
// and returns the surviving findings sorted by position, plus the count
// of findings silenced by //lint:ignore directives. Analysis fans out
// over a worker pool, one worker per package up to GOMAXPROCS: packages
// are independent once the wave-ordered type-check in the loader has
// finished.
func (prog *Program) Run(analyzers ...*Analyzer) (findings []Diagnostic, suppressed int) {
	perPkg := make([][]Diagnostic, len(prog.Module))
	perPkgSuppressed := make([]int, len(prog.Module))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i, pkg := range prog.Module {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, pkg *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			perPkg[i], perPkgSuppressed[i] = prog.runPackage(pkg, analyzers)
		}(i, pkg)
	}
	wg.Wait()
	for i := range perPkg {
		findings = append(findings, perPkg[i]...)
		suppressed += perPkgSuppressed[i]
	}
	sortDiagnostics(findings)
	return findings, suppressed
}

// runPackage runs every applicable analyzer over one package and
// filters the findings through that package's //lint:ignore directives.
// Suppression matching is per-file, so filtering per package is exactly
// equivalent to a whole-module pass.
func (prog *Program) runPackage(pkg *Package, analyzers []*Analyzer) (findings []Diagnostic, suppressed int) {
	var all []Diagnostic
	rel := pkg.Rel(prog.ModulePath)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(rel) {
			continue
		}
		a.Run(&Pass{Prog: prog, Pkg: pkg, analyzer: a, diags: &all})
	}
	sups := collectSuppressions(prog.Fset, pkg)
	covered := func(d Diagnostic) bool {
		for _, s := range sups {
			if s.analyzer == d.Analyzer && s.file == d.Pos.Filename &&
				(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
				return true
			}
		}
		return false
	}
	for _, d := range all {
		if covered(d) {
			suppressed++
			continue
		}
		findings = append(findings, d)
	}
	return findings, suppressed
}

// sortDiagnostics orders findings by file, line, column, analyzer — the
// driver's stable output order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ClaimSettle,
		HotpathAlloc,
		Determinism,
		LockIO,
		LockOrder,
		Lifecycle,
		WireErr,
		WireTaint,
	}
}

// ByName resolves a comma-separated analyzer list ("claimsettle,lockio").
// A repeated name selects its analyzer once.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		if !slices.Contains(out, all[i]) {
			out = append(out, all[i])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// Relativize rewrites diagnostic filenames relative to dir when
// possible, for stable, readable driver output.
func Relativize(dir string, ds []Diagnostic) {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	for i := range ds {
		if rel, err := filepath.Rel(dir, ds[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			ds[i].Pos.Filename = rel
		}
	}
}
