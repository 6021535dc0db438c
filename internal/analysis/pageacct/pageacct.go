// Package pageacct enforces the page-accounting invariant of the
// observability layer (PR 3): every page a search touches is counted,
// so the trace spans of a search provably sum to its
// SearchStats.TotalPages() and measured costs stay comparable to the
// paper's analytical retrieval-cost formulas term by term.
//
// Within each analyzed package the analyzer builds the package-local
// call graph and marks every function reachable from a search entry
// point: a function or method whose name begins with Search or search,
// or a method named candidates — the index half of a search, which the
// shell reaches through the index interface, a dynamic call the static
// graph cannot follow. For reachable functions it checks three rules:
//
//  1. A function that reads pages (pagestore ReadPage) must account for
//     them in the same function: an increment of a SearchStats counter
//     field (stats.IndexPages++, stats.OIDPages = n, ...) or of a
//     page-counter variable (pages++, the oidFile.getMany protocol of
//     returning the count to a caller that assigns it into stats).
//
//  2. A search path must not write or allocate pages (pagestore
//     WritePage/Allocate): searches run under the facilities' shared
//     read lock, so a write on that path is both a cost-model violation
//     and a data race in waiting.
//
//  3. A trace span's page count (the third argument of obs.Trace.End)
//     must be a SearchStats field, keeping the spans-sum-to-stats
//     property syntactically evident.
package pageacct

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sigfile/internal/analysis/sigvet"
)

// Analyzer is the pageacct analyzer.
var Analyzer = &sigvet.Analyzer{
	Name: "pageacct",
	Doc: "search paths must count every page they read into SearchStats, " +
		"must not write pages, and must feed trace spans from SearchStats fields",
	Run: run,
}

func run(pass *sigvet.Pass) (any, error) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	reachable := searchReachable(pass, decls)
	for fn := range reachable {
		fd := decls[fn]
		checkFunc(pass, fd)
	}
	return nil, nil
}

// searchReachable returns the functions of this package reachable (via
// static package-local calls, including calls made inside function
// literals) from a search entry point.
func searchReachable(pass *sigvet.Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	edges := make(map[*types.Func][]*types.Func)
	for fn, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := sigvet.CalleeFunc(pass.TypesInfo, call)
			if callee != nil {
				if _, local := decls[callee]; local {
					edges[fn] = append(edges[fn], callee)
				}
			}
			return true
		})
	}
	reachable := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if reachable[fn] || isMaintenance(fn.Name()) {
			return
		}
		reachable[fn] = true
		for _, callee := range edges[fn] {
			visit(callee)
		}
	}
	for fn := range decls {
		if isSearchEntry(fn.Name()) {
			visit(fn)
		}
	}
	return reachable
}

// isSearchEntry reports whether name denotes a search entry point.
func isSearchEntry(name string) bool {
	return strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "search") || name == "candidates"
}

// isMaintenance reports whether name denotes LSM maintenance machinery —
// memtable flushes and segment compaction. Those functions write pages by
// design (sealing a segment, merging segments) under the facility's write
// lock, so their writes are update-path writes even when a search-named
// caller is what triggers them; the reachability sweep stops at them
// rather than misreading compaction writes as search-path writes.
func isMaintenance(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "flush") || strings.HasPrefix(lower, "compact")
}

// checkFunc applies the three rules to one reachable function.
func checkFunc(pass *sigvet.Pass, fd *ast.FuncDecl) {
	reads := 0
	accounts := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sigvet.IsMethodCallIn(pass.TypesInfo, n, "pagestore", "ReadPage") {
				reads++
			}
			if sigvet.IsMethodCallIn(pass.TypesInfo, n, "pagestore", "WritePage", "Allocate") {
				pass.Reportf(n.Pos(),
					"search path %s writes or allocates pages; searches hold the shared lock and must be read-only",
					fd.Name.Name)
			}
			checkSpanArg(pass, n)
		case *ast.IncDecStmt:
			if isAccounting(pass.TypesInfo, n.X, true) {
				accounts = true
			}
		case *ast.AssignStmt:
			compound := n.Tok == token.ADD_ASSIGN
			for _, lhs := range n.Lhs {
				if isAccounting(pass.TypesInfo, lhs, compound) {
					accounts = true
				}
			}
		}
		return true
	})
	if reads > 0 && !accounts {
		pass.Reportf(fd.Pos(),
			"search path %s reads pages but never counts them into SearchStats or a page counter; "+
				"trace spans would no longer sum to SearchStats", fd.Name.Name)
	}
}

// isAccounting reports whether target is a page-accounting sink: a
// field of a SearchStats struct (any assignment), or — for increments
// and += only — a variable whose name mentions pages (the counter
// returned by helpers like oidFile.getMany).
func isAccounting(info *types.Info, target ast.Expr, counting bool) bool {
	switch e := ast.Unparen(target).(type) {
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return false
		}
		return fieldOfSearchStats(info, e)
	case *ast.Ident:
		if !counting {
			return false
		}
		v, ok := info.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		if basic, ok := v.Type().Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
			return false
		}
		return strings.Contains(strings.ToLower(e.Name), "page")
	}
	return false
}

// fieldOfSearchStats reports whether sel selects a field of a named
// struct type called SearchStats (matched by name so the rule works on
// both the real core package and testdata mocks).
func fieldOfSearchStats(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	named := sigvet.NamedOf(s.Recv())
	return named != nil && named.Obj().Name() == "SearchStats"
}

// checkSpanArg enforces rule 3 on obs.Trace.End calls: the page-count
// argument must be a SearchStats field so each span mirrors the stats
// term for its phase.
func checkSpanArg(pass *sigvet.Pass, call *ast.CallExpr) {
	if sigvet.PkgPathEndsWith(pass.Pkg, "obs") {
		return // the obs package implements Trace; the rule is for users.
	}
	fn := sigvet.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "End" || !sigvet.PkgPathEndsWith(fn.Pkg(), "obs") {
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	if named := sigvet.NamedOf(recv.Type()); named == nil || named.Obj().Name() != "Trace" {
		return
	}
	if len(call.Args) != 3 {
		return
	}
	pages := ast.Unparen(call.Args[2])
	if sel, ok := pages.(*ast.SelectorExpr); ok && fieldOfSearchStats(pass.TypesInfo, sel) {
		return
	}
	pass.Reportf(pages.Pos(),
		"trace span page count must be a SearchStats field (stats.IndexPages, stats.OIDPages, ...); "+
			"anything else breaks the spans-sum-to-stats invariant")
}
