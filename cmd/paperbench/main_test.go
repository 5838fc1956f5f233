package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/figures"
)

// dispatch is what main.go actually offers, read from its syntax tree:
// the names of the flags it defines and the -fig and -table keys it
// dispatches on.
type dispatch struct {
	flags, figs, tables map[string]bool
}

// parseDispatch collects flag.X("name", ...) definitions, want(n) and
// strings.EqualFold(*fig, "Sn") figure selectors, and *table == n
// comparisons from main.go.
func parseDispatch(t *testing.T) dispatch {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := dispatch{flags: map[string]bool{}, figs: map[string]bool{}, tables: map[string]bool{}}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				pkg, ok := fun.X.(*ast.Ident)
				if !ok {
					break
				}
				if pkg.Name == "flag" && len(n.Args) > 0 {
					if s, ok := literal(n.Args[0]); ok {
						d.flags[s] = true
					}
				}
				if pkg.Name == "strings" && fun.Sel.Name == "EqualFold" && len(n.Args) == 2 && deref(n.Args[0], "fig") {
					if s, ok := literal(n.Args[1]); ok {
						d.figs[s] = true
					}
				}
			case *ast.Ident:
				if fun.Name == "want" && len(n.Args) == 1 {
					if s, ok := literal(n.Args[0]); ok {
						d.figs[s] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL && deref(n.X, "table") {
				if s, ok := literal(n.Y); ok {
					d.tables[s] = true
				}
			}
		}
		return true
	})
	return d
}

// literal returns the value of a string or integer literal, unquoted.
func literal(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return "", false
	}
	switch lit.Kind {
	case token.STRING:
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	case token.INT:
		return lit.Value, true
	}
	return "", false
}

// deref reports whether e is *name.
func deref(e ast.Expr, name string) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == name
}

// TestCatalogMatchesDispatch: every selector figures.Catalog lists
// (what paperbench -list prints) is a flag main defines, and its -fig
// and -table keys are exactly the ones main dispatches on, so the
// catalog can neither advertise a removed artifact nor omit one.
func TestCatalogMatchesDispatch(t *testing.T) {
	d := parseDispatch(t)
	if len(d.flags) == 0 || len(d.figs) == 0 || len(d.tables) == 0 {
		t.Fatalf("parsed no dispatch from main.go: %+v", d)
	}
	listed := map[string]map[string]bool{"fig": {}, "table": {}}
	for _, e := range figures.Catalog() {
		fields := strings.Fields(e.Flag)
		name := strings.TrimPrefix(fields[0], "-")
		if !d.flags[name] {
			t.Errorf("catalog entry %q: main.go defines no -%s flag", e.Flag, name)
			continue
		}
		keys, keyed := listed[name]
		if len(fields) != 2 {
			if keyed {
				t.Errorf("catalog entry %q: -%s needs a key", e.Flag, name)
			}
			continue
		}
		if !keyed {
			t.Errorf("catalog entry %q: -%s takes no key", e.Flag, name)
			continue
		}
		keys[fields[1]] = true
	}
	for name, dispatched := range map[string]map[string]bool{"fig": d.figs, "table": d.tables} {
		for _, k := range sortedKeys(listed[name]) {
			if !dispatched[k] {
				t.Errorf("catalog lists -%s %s, which main.go does not dispatch", name, k)
			}
		}
		for _, k := range sortedKeys(dispatched) {
			if !listed[name][k] {
				t.Errorf("main.go dispatches -%s %s, which the catalog does not list", name, k)
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
