package byzcons_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPIManifest = flag.Bool("update", false, "rewrite testdata/api_manifest.txt from the current public API")

// TestBenchModuleVets keeps the benchmark module compiling: bench/ is its own
// Go module, so `go build ./...` here never sees it, yet it compiles against
// internal packages as well as the public API. Vetting it type-checks every
// identifier it uses.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go toolchain on PATH: %v", err)
	}
	if out, err := exec.Command(goBin, "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}

// TestPublicAPIManifest is the API drift tripwire: it type-checks package
// byzcons from source, renders every exported identifier — constants, vars,
// funcs, types, their exported fields and their full method sets, signatures
// included — and compares the result against the checked-in manifest. Any
// surface change (adding, removing or re-signaturing an identifier) fails
// with a diff until the manifest is regenerated with
//
//	go test -run TestPublicAPIManifest -update .
//
// so API evolution is always an explicit, reviewable artifact.
func TestPublicAPIManifest(t *testing.T) {
	pkg := typeCheckByzcons(t)
	got := renderAPI(pkg)

	const manifest = "testdata/api_manifest.txt"
	if *updateAPIManifest {
		if err := os.MkdirAll(filepath.Dir(manifest), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", manifest)
		return
	}
	wantBytes, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("missing API manifest (run with -update to create it): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gotSet := make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		gotSet[l] = true
	}
	wantSet := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range wantLines {
		if !gotSet[l] {
			t.Errorf("API removed or changed: %s", l)
		}
	}
	for _, l := range gotLines {
		if !wantSet[l] {
			t.Errorf("API added or changed: %s", l)
		}
	}
	t.Error("public API drifted from testdata/api_manifest.txt; if intentional, regenerate with -update")
}

// typeCheckByzcons parses and type-checks the root package (and, through the
// module-aware importer below, its internal dependencies) from source.
func typeCheckByzcons(t *testing.T) *types.Package {
	t.Helper()
	imp := &moduleImporter{
		fset:     token.NewFileSet(),
		packages: map[string]*types.Package{},
		fallback: importer.Default(),
	}
	pkg, err := imp.Import("byzcons")
	if err != nil {
		t.Fatalf("type-checking package byzcons: %v", err)
	}
	return pkg
}

// moduleImporter resolves "byzcons/..." import paths to source directories
// under the repository root and type-checks them recursively; everything
// else (the standard library) goes through the default importer. Standard
// library only — no external tooling dependency.
type moduleImporter struct {
	fset     *token.FileSet
	packages map[string]*types.Package
	fallback types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.packages[path]; ok {
		return pkg, nil
	}
	var dir string
	switch {
	case path == "byzcons":
		dir = "."
	case strings.HasPrefix(path, "byzcons/"):
		dir = "./" + strings.TrimPrefix(path, "byzcons/")
	default:
		return im.fallback.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	im.packages[path] = pkg
	return pkg, nil
}

// renderAPI flattens the package's exported surface into sorted manifest
// lines. Types contribute their exported fields and their full method sets
// (pointer receiver included), so identifiers aliased from internal packages
// — Decision, Pending, the report types — are pinned by what they actually
// expose, not by where they are declared.
func renderAPI(pkg *types.Package) string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	}
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !token.IsExported(name) {
			continue
		}
		obj := scope.Lookup(name)
		switch obj := obj.(type) {
		case *types.Const:
			lines = append(lines, fmt.Sprintf("const %s %s", name, types.TypeString(obj.Type(), qual)))
		case *types.Var:
			lines = append(lines, fmt.Sprintf("var %s %s", name, types.TypeString(obj.Type(), qual)))
		case *types.Func:
			lines = append(lines, fmt.Sprintf("func %s%s", name, strings.TrimPrefix(types.TypeString(obj.Type().(*types.Signature), qual), "func")))
		case *types.TypeName:
			kind := "type"
			if obj.IsAlias() {
				kind = "type (alias)"
			}
			lines = append(lines, fmt.Sprintf("%s %s = %s", kind, name, describeType(obj.Type(), qual)))
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() {
						continue
					}
					lines = append(lines, fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual)))
				}
			}
			ms := types.NewMethodSet(types.NewPointer(obj.Type()))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if !m.Exported() {
					continue
				}
				lines = append(lines, fmt.Sprintf("method %s.%s%s", name, m.Name(), strings.TrimPrefix(types.TypeString(m.Type().(*types.Signature), qual), "func")))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// describeType names a type tersely for the manifest header line: named and
// basic types by name, composites by their kind.
func describeType(t types.Type, qual types.Qualifier) string {
	switch u := t.(type) {
	case *types.Named:
		return types.TypeString(u, qual)
	case *types.Alias:
		return types.TypeString(u, qual)
	}
	switch t.Underlying().(type) {
	case *types.Struct:
		return "struct"
	case *types.Interface:
		return "interface"
	case *types.Signature:
		return "func"
	case *types.Basic:
		return types.TypeString(t.Underlying(), qual)
	default:
		return types.TypeString(t.Underlying(), qual)
	}
}
