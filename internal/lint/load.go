package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package (plus, when the directory has
// an external test package, that package as a sibling entry produced by
// LoadAll).
type Package struct {
	// Path is the import path ("gpupower/internal/core"). External test
	// packages get the conventional "_test" suffix appended.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checker errors. A non-empty slice means
	// the analysis facts are incomplete and the run should be treated as
	// failed rather than clean.
	TypeErrors []error

	loader     *Loader     // back-link for Dep resolution
	deps       []string    // local import paths, recorded at load time
	xtestFiles []*ast.File // package foo_test files, hoisted into a sibling Package by LoadAll
	xtestPkg   *Package    // memoized external-test sibling, built on first LoadAll
}

// Dep resolves a local import path to its loaded package, searching the
// package's direct imports first and then breadth-first through their
// imports. Cross-package analyses (unitflow facts, disjointwrite method
// summaries) use it to reach the syntax of the packages this one depends
// on; it never triggers a new load — every reachable dependency was loaded
// when this package type-checked.
func (p *Package) Dep(path string) (*Package, bool) {
	if p.loader == nil {
		return nil, false
	}
	seen := map[string]bool{p.Path: true}
	queue := append([]string(nil), p.deps...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		dep := p.loader.memo[cur].pkg
		if dep == nil {
			continue
		}
		if cur == path {
			return dep, true
		}
		queue = append(queue, dep.deps...)
	}
	return nil, false
}

// Loader parses and type-checks packages of a single module (or of a
// GOPATH-style fixture tree) without any toolchain dependency beyond the
// standard library. Local imports are resolved recursively from source;
// everything else is delegated to importer.Default() with a source-importer
// fallback.
//
// Loading is serial and memoized: each package is parsed and type-checked
// at most once per Loader, so every importer shares one types.Object graph —
// the identity the cross-package fact stores key on. A Loader is not safe
// for concurrent use.
type Loader struct {
	// RootDir is the directory tree containing the packages.
	RootDir string
	// RootPath is the module path prefix ("gpupower"). Empty means
	// GOPATH-fixture mode: import paths are directory paths relative to
	// RootDir ("maporder/internal/core").
	RootPath string
	// Tests includes _test.go files: in-package test files are type-checked
	// together with the package, external test files become a separate
	// "<path>_test" package.
	Tests bool

	fset *token.FileSet

	// memo holds every load, failed ones included. A load still in
	// progress holds an import-cycle error, which is what an import that
	// re-enters it must get.
	memo map[string]loaded

	std    types.Importer
	srcImp types.Importer
}

// loaded is the memoized outcome of one package load.
type loaded struct {
	pkg *Package
	err error
}

// NewLoader returns a loader over rootDir. rootPath is the module path prefix
// ("" for GOPATH-style fixture trees).
func NewLoader(rootDir, rootPath string) *Loader {
	return &Loader{
		RootDir:  rootDir,
		RootPath: rootPath,
		Tests:    true,
		fset:     token.NewFileSet(),
		memo:     make(map[string]loaded),
	}
}

// Discover walks RootDir and returns the sorted import paths of every
// directory containing buildable .go files. testdata, vendor, hidden and
// underscore-prefixed directories are skipped (testdata trees deliberately
// contain invariant violations).
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.Walk(l.RootDir, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			name := fi.Name()
			if p != l.RootDir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.RootDir, dir)
		if err != nil {
			return err
		}
		paths = append(paths, l.relToPath(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// Deduplicate (one entry per .go file was appended).
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// LoadAll loads every discovered package, hoisting each external test
// package into a sibling entry right after the package it tests, and
// returns them in deterministic path order. The external-test sibling is
// memoized like any other package.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, err := l.Discover()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", p, err)
		}
		out = append(out, pkg)
		if len(pkg.xtestFiles) == 0 {
			continue
		}
		if pkg.xtestPkg == nil {
			xp, err := l.checkXTest(pkg)
			if err != nil {
				return nil, fmt.Errorf("lint: load %s external tests: %w", p, err)
			}
			pkg.xtestPkg = xp
		}
		out = append(out, pkg.xtestPkg)
	}
	return out, nil
}

func (l *Loader) relToPath(rel string) string {
	rel = filepath.ToSlash(rel)
	switch {
	case rel == "." && l.RootPath != "":
		return l.RootPath
	case rel == ".":
		return ""
	case l.RootPath != "":
		return l.RootPath + "/" + rel
	default:
		return rel
	}
}

func (l *Loader) pathToDir(path string) (string, bool) {
	var rel string
	switch {
	case l.RootPath != "" && path == l.RootPath:
		rel = "."
	case l.RootPath != "" && strings.HasPrefix(path, l.RootPath+"/"):
		rel = strings.TrimPrefix(path, l.RootPath+"/")
	case l.RootPath == "" && path != "":
		rel = path
	default:
		return "", false
	}
	dir := filepath.Join(l.RootDir, filepath.FromSlash(rel))
	fi, err := os.Stat(dir)
	if err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// local reports whether an import path resolves inside the loaded tree.
func (l *Loader) local(path string) bool {
	_, ok := l.pathToDir(path)
	return ok
}

// Load parses and type-checks the package at the given import path (module
// packages only; stdlib goes through the importer delegation), memoizing the
// outcome. A local import that leads back to a package still being loaded is
// an import cycle, reported as an error.
func (l *Loader) Load(path string) (*Package, error) {
	if m, ok := l.memo[path]; ok {
		return m.pkg, m.err
	}
	l.memo[path] = loaded{err: fmt.Errorf("import cycle through %q", path)}
	pkg, err := l.loadFiles(path)
	l.memo[path] = loaded{pkg, err}
	return pkg, err
}

// loadFiles parses and type-checks one package.
func (l *Loader) loadFiles(path string) (*Package, error) {
	dir, ok := l.pathToDir(path)
	if !ok {
		return nil, fmt.Errorf("no package directory for %q under %s", path, l.RootDir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, xtest []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !l.Tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(name, "_test.go") {
			xtest = append(xtest, f)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 && len(xtest) == 0 {
		return nil, fmt.Errorf("no buildable go files in %s", dir)
	}

	pkg := &Package{Path: path, Fset: l.fset, Files: files, loader: l, xtestFiles: xtest}
	pkg.deps = l.localImports(path, files)
	pkg.Types, pkg.Info, pkg.TypeErrors = l.check(path, files)
	if len(pkg.TypeErrors) > 0 {
		return pkg, pkg.TypeErrors[0]
	}
	return pkg, nil
}

// localImports collects the in-module import paths of a file set, sorted and
// deduplicated — the Dep search space for cross-package analyses.
func (l *Loader) localImports(path string, files []*ast.File) []string {
	set := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if p != path && l.local(p) {
				set[p] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// check type-checks one set of files as the package named by path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := &types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	return tpkg, info, errs
}

// checkXTest type-checks the external test files of pkg as "<path>_test".
// Its import of the package under test resolves to the already-loaded
// in-package object (which includes export_test.go declarations, matching the
// go toolchain's test-binary semantics).
func (l *Loader) checkXTest(pkg *Package) (*Package, error) {
	xp := &Package{Path: pkg.Path + "_test", Fset: l.fset, Files: pkg.xtestFiles, loader: l}
	xp.deps = l.localImports(xp.Path, pkg.xtestFiles)
	xp.Types, xp.Info, xp.TypeErrors = l.check(xp.Path, pkg.xtestFiles)
	if len(xp.TypeErrors) > 0 {
		return xp, xp.TypeErrors[0]
	}
	return xp, nil
}

// importPkg is the recursive in-module importer: local packages are loaded
// from source (memoized), "unsafe" maps to types.Unsafe, and
// everything else — the standard library — is delegated to
// importer.Default(), falling back to the slower source importer when no
// export data is available.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.local(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		l.std = importer.Default()
	}
	tp, err := l.std.Import(path)
	if err == nil {
		return tp, nil
	}
	if l.srcImp == nil {
		l.srcImp = importer.ForCompiler(l.fset, "source", nil)
	}
	tp2, err2 := l.srcImp.Import(path)
	if err2 != nil {
		return nil, fmt.Errorf("import %q: %w (source fallback: %v)", path, err, err2)
	}
	return tp2, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModule walks upward from dir to the enclosing go.mod and returns the
// module root directory and module path — the arguments NewLoader takes.
func FindModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			m := moduleRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("no module directive in %s", filepath.Join(abs, "go.mod"))
			}
			return abs, string(m[1]), nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s (run from inside the module)", dir)
		}
		abs = parent
	}
}
