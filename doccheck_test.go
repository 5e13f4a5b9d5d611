package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// The documents that describe the tree as it is: README.md, DESIGN.md and
// the verify notes (SKILL.md in the repository's hidden skills directory).
// CHANGES.md, EXPERIMENTS.md, ROADMAP.md and the frozen bench/README.md are
// records of how it got here and may name what is gone.
func describingDocs(t *testing.T) []string {
	skills, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(skills) != 1 {
		t.Fatalf("verify notes: %v, %v", skills, err)
	}
	return append([]string{"README.md", "DESIGN.md"}, skills...)
}

var (
	fenceRE    = regexp.MustCompile("(?s)```.*?```")
	inlineRE   = regexp.MustCompile("`[^`\n]+`")
	testNameRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeRE     = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	targetRE   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	bracesRE   = regexp.MustCompile(`\{([^{}]*)\}`)
	identRE    = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// stdlibNamesakes are qualified names a document may cite from a standard
// package that shares its name with one of the tree's.
var stdlibNamesakes = map[string]bool{
	"exec.Command": true, // os/exec
	"trace.Start":  true, // runtime/trace
}

// TestDocsNameWhatExists is `make doccheck`: every internal/, cmd/ or
// examples/ path, `make` target, Test/Benchmark/Fuzz name and pkg.Ident
// (pkg a package directory under internal/ or cmd/) that a describing
// document puts in backticks or a code block is one the tree has.  A test
// name may be a prefix, as in a -run pattern.
func TestDocsNameWhatExists(t *testing.T) {
	var tests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	decls := declarations(t)

	for _, doc := range describingDocs(t) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		code := fenceRE.FindAllString(text, -1)
		code = append(code, inlineRE.FindAllString(fenceRE.ReplaceAllString(text, ""), -1)...)
		for _, c := range code {
			for _, p := range docPaths(c) {
				if ms, _ := filepath.Glob(p); len(ms) == 0 {
					t.Errorf("%s names %s, which the tree does not have", doc, p)
				}
			}
			for _, m := range makeRE.FindAllStringSubmatch(c, -1) {
				if !targets[m[1]] {
					t.Errorf("%s names make target %q, which the Makefile does not have", doc, m[1])
				}
			}
			for _, name := range testNameRE.FindAllString(c, -1) {
				if !hasPrefixIn(tests, name) {
					t.Errorf("%s names %s, which no test file declares", doc, name)
				}
			}
			for _, m := range identRE.FindAllStringSubmatch(c, -1) {
				if names, ok := decls[m[1]]; ok && !names[m[2]] && !stdlibNamesakes[m[0]] {
					t.Errorf("%s names %s, which package %s does not declare", doc, m[0], m[1])
				}
			}
		}
	}
}

// changesEntryRE finds where a CHANGES entry starts, and its PR number.
var changesEntryRE = regexp.MustCompile(`(?m)^- PR (\d+):`)

// TestChangesEntrySize keeps the record short enough to read: the newest
// CHANGES entry is at most 12 lines, none over 100 characters.  Entries
// before PR 37, written before the rule, are exempt.
func TestChangesEntrySize(t *testing.T) {
	src, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	locs := changesEntryRE.FindAllStringSubmatchIndex(text, -1)
	if len(locs) == 0 {
		t.Fatal("CHANGES.md has no entry")
	}
	last := locs[len(locs)-1]
	if pr, _ := strconv.Atoi(text[last[2]:last[3]]); pr < 37 {
		return
	}
	lines := strings.Split(strings.TrimRight(text[last[0]:], "\n"), "\n")
	if len(lines) > 12 {
		t.Errorf("the newest CHANGES entry has %d lines, at most 12 allowed", len(lines))
	}
	for i, l := range lines {
		if n := utf8.RuneCountInString(l); n > 100 {
			t.Errorf("line %d of the newest CHANGES entry has %d characters, at most 100 allowed", i+1, n)
		}
	}
}

// experimentsSectionRE finds where an EXPERIMENTS section starts, and its
// number.
var experimentsSectionRE = regexp.MustCompile(`(?m)^## S(\d+) `)

// TestExperimentsSectionSize keeps a section short enough to read: the
// highest-numbered "## S<n>" section of EXPERIMENTS, up to the next "## "
// heading, is at most 8 KB.
func TestExperimentsSectionSize(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text, top, at := string(src), -1, 0
	for _, l := range experimentsSectionRE.FindAllStringSubmatchIndex(text, -1) {
		if n, _ := strconv.Atoi(text[l[2]:l[3]]); n > top {
			top, at = n, l[0]
		}
	}
	if top < 0 {
		t.Fatal("EXPERIMENTS.md has no section")
	}
	size := len(text) - at
	if i := strings.Index(text[at+1:], "\n## "); i >= 0 {
		size = i + 2
	}
	if size > 8<<10 {
		t.Errorf("EXPERIMENTS S%d is %d bytes, at most %d allowed", top, size, 8<<10)
	}
}

// declarations maps the name of every package directory under internal/
// and cmd/ to the top-level identifiers its non-test files declare.
func declarations(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.SkipObjectResolution)
			if err != nil || len(pkgs) == 0 {
				return err
			}
			names := decls[filepath.Base(dir)]
			if names == nil {
				names = map[string]bool{}
				decls[filepath.Base(dir)] = names
			}
			for _, p := range pkgs {
				for _, f := range p.Files {
					for _, d := range f.Decls {
						switch d := d.(type) {
						case *ast.FuncDecl:
							if d.Recv == nil {
								names[d.Name.Name] = true
							}
						case *ast.GenDecl:
							for _, sp := range d.Specs {
								switch sp := sp.(type) {
								case *ast.TypeSpec:
									names[sp.Name.Name] = true
								case *ast.ValueSpec:
									for _, n := range sp.Names {
										names[n.Name] = true
									}
								}
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
	}
	return decls
}

// docPaths returns the internal/, cmd/ and examples/ paths in a code span,
// as globs, with {a,b} alternatives expanded and a trailing /... or
// Go-qualified .Name dropped.
func docPaths(code string) []string {
	var out []string
	for _, tok := range strings.FieldsFunc(code, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("_./{},*-", r)
	}) {
		tok = strings.TrimRight(strings.TrimPrefix(tok, "./"), ".,")
		if !strings.HasPrefix(tok, "internal/") && !strings.HasPrefix(tok, "cmd/") && !strings.HasPrefix(tok, "examples/") {
			continue
		}
		tok, _, _ = strings.Cut(tok, "...")
		tok = strings.TrimRight(tok, "/")
		if i := strings.LastIndexByte(tok, '.'); i > strings.LastIndexByte(tok, '/') && unicode.IsUpper(rune(tok[min(i+1, len(tok)-1)])) {
			tok = tok[:i] // internal/core.Machine: the package
		}
		out = append(out, expandBraces(tok)...)
	}
	return out
}

// expandBraces expands the first {a,b,...} in p, recursively.
func expandBraces(p string) []string {
	loc := bracesRE.FindStringSubmatchIndex(p)
	if loc == nil {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(p[:loc[0]]+alt+p[loc[1]:])...)
	}
	return out
}

func hasPrefixIn(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
