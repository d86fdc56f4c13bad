package masterslave

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameThingsThatExist pins the prose to the tree: every
// backticked span of DESIGN.md and README.md (outside fenced blocks)
// that names a repository path, a pkg.Symbol of one of this module's
// packages or a schedd_* metric family must name something that exists.
// A deleted path, declaration or metric that survives in the docs fails
// here.
func TestDocsNameThingsThatExist(t *testing.T) {
	pkgs := modulePackages(t)
	metrics := scheddSource(t)
	var (
		spanRe   = regexp.MustCompile("`([^`\n]+)`")
		pathRe   = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|pkg|examples|bench)(?:/[\w.\-]*)*)`)
		symbolRe = regexp.MustCompile(`^([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
		metricRe = regexp.MustCompile(`^schedd_[a-z0-9_*]+`)
		suffixRe = regexp.MustCompile(`\.([A-Za-z_]\w*)$`)
	)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spanRe.FindAllStringSubmatch(stripFences(string(b)), -1) {
			span := m[1]
			switch {
			case pathRe.MatchString(span):
				p := pathRe.FindStringSubmatch(span)[1]
				if _, err := os.Stat(p); err == nil {
					continue
				}
				// A path.Symbol span: the package directory must exist
				// and declare the symbol.
				if s := suffixRe.FindStringSubmatch(p); s != nil {
					dir := strings.TrimSuffix(p, s[0])
					if decl, ok := pkgs.byDir[dir]; ok && decl[s[1]] {
						continue
					}
				}
				t.Errorf("%s: `%s` names a path that does not exist", doc, span)
			case metricRe.MatchString(span):
				name := metricRe.FindString(span)
				family := regexp.MustCompile(`"` + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `[a-z0-9_]+`) +
					`(?:_bucket|_count|_sum)?"`)
				if !family.MatchString(metrics) {
					t.Errorf("%s: `%s` names a metric family internal/schedd does not register", doc, span)
				}
			case symbolRe.MatchString(span):
				s := symbolRe.FindStringSubmatch(span)
				decl, ok := pkgs.byName[s[1]]
				if !ok {
					continue // not one of this module's packages
				}
				if !decl[s[2]] || (s[3] != "" && !decl[s[2]+"."+s[3]]) {
					t.Errorf("%s: `%s` names a symbol package %s does not declare", doc, span, s[1])
				}
			}
		}
	}
}

// stripFences drops fenced code blocks: shell sessions, not references.
func stripFences(doc string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// declarations maps the names a package declares to true: types, funcs,
// methods, vars, consts and struct fields, bare and as Type.Member.
// Test, Benchmark and Fuzz functions are looked up in the package's test
// files; everything else in its non-test files.
type declarations map[string]bool

// packages indexes this module's packages (bench/ is a module of its
// own) by directory and by package name; command packages, all named
// main, are not indexed by name.
type packages struct {
	byDir  map[string]declarations
	byName map[string]declarations
}

func modulePackages(t *testing.T) packages {
	t.Helper()
	pkgs := packages{byDir: map[string]declarations{}, byName: map[string]declarations{}}
	testFunc := regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z_]`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		decl := pkgs.byDir[dir]
		if decl == nil {
			decl = declarations{}
			pkgs.byDir[dir] = decl
		}
		if name := f.Name.Name; name != "main" && !strings.HasSuffix(name, "_test") {
			pkgs.byName[name] = decl
		}
		isTest := strings.HasSuffix(path, "_test.go")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if isTest != (d.Recv == nil && testFunc.MatchString(name)) {
					continue
				}
				decl[name] = true
				if d.Recv != nil {
					decl[receiverType(d.Recv.List[0].Type)+"."+name] = true
				}
			case *ast.GenDecl:
				if isTest {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decl[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range fieldNames(field) {
									decl[n] = true
									decl[s.Name.Name+"."+n] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decl[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// receiverType names a method's receiver type: T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// fieldNames lists a struct field's names; an embedded field is named
// by its type.
func fieldNames(f *ast.Field) []string {
	if len(f.Names) == 0 {
		return []string{receiverType(f.Type)}
	}
	names := make([]string, len(f.Names))
	for i, n := range f.Names {
		names[i] = n.Name
	}
	return names
}

// scheddSource concatenates internal/schedd's non-test Go, where every
// metric family it serves is registered by name.
func scheddSource(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob("internal/schedd/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	return src.String()
}
