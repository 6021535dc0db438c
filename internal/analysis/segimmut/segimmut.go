// Package segimmut enforces the LSM segment-immutability contract
// (DESIGN.md §13): a sealed segment never changes. Three rules make the
// prose mechanical:
//
//  1. Code reachable (package-locally) from a segment-reader entry
//     point — a method named segmentCandidates, candidates (the index
//     method segmentCandidates dispatches to through the index
//     interface) or liveOIDs — must not
//     call mutating pagestore methods (WritePage, Allocate, Remove,
//     RemoveIfSupported). Segment readers serve sealed bytes; a write
//     on that path would mutate a segment other readers are sharing.
//
//  2. Maintenance functions (the flush*/compact* carve-out pageacct
//     stops at) must not be reachable from Search*/search*/candidates
//     entry points: flushes and compactions belong to the update path, which
//     holds the facility write lock. A search that triggers one would
//     write under the shared read lock.
//
//  3. Within a function, a File opened from a pagestore.ReadOnly store
//     view must not receive WritePage or Allocate. The view already
//     fails those at run time with ErrReadOnly; the analyzer moves the
//     failure to vet time where the flow is locally evident.
package segimmut

import (
	"go/ast"
	"go/types"
	"strings"

	"sigfile/internal/analysis/sigvet"
)

// Analyzer is the segimmut analyzer.
var Analyzer = &sigvet.Analyzer{
	Name: "segimmut",
	Doc: "segment-reader paths must not mutate pagestore state, maintenance must " +
		"not be reachable from searches, and ReadOnly-view files must not be written",
	Run: run,
}

// mutators are the pagestore calls that change stored state.
var mutators = []string{"WritePage", "Allocate", "Remove", "RemoveIfSupported"}

func run(pass *sigvet.Pass) (any, error) {
	if sigvet.PkgPathEndsWith(pass.Pkg, "pagestore") {
		// The storage layer implements the mutators and the ReadOnly
		// view; the rules are for its users.
		return nil, nil
	}
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
	checkReaderPaths(pass, decls)
	checkSearchMaintenance(pass, decls)
	for _, fd := range decls {
		checkReadOnlyFlow(pass, fd)
	}
	return nil, nil
}

// localEdges builds the package-local static call graph, including
// calls made inside function literals.
func localEdges(pass *sigvet.Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func][]*types.Func {
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
	return edges
}

// checkReaderPaths enforces rule 1: no mutating pagestore calls
// reachable from segmentCandidates/candidates/liveOIDs.
func checkReaderPaths(pass *sigvet.Pass, decls map[*types.Func]*ast.FuncDecl) {
	edges := localEdges(pass, decls)
	reachable := make(map[*types.Func]bool)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if reachable[fn] {
			return
		}
		reachable[fn] = true
		for _, callee := range edges[fn] {
			visit(callee)
		}
	}
	for fn := range decls {
		switch fn.Name() {
		case "segmentCandidates", "candidates", "liveOIDs":
			visit(fn)
		}
	}
	for fn := range reachable {
		fd := decls[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !sigvet.IsMethodCallIn(pass.TypesInfo, call, "pagestore", mutators...) {
				return true
			}
			pass.Reportf(call.Pos(),
				"segment-reader path %s calls %s; sealed segments are immutable, reader entry points must stay read-only",
				fd.Name.Name, sigvet.CalleeFunc(pass.TypesInfo, call).Name())
			return true
		})
	}
}

// checkSearchMaintenance enforces rule 2: walking from search entry
// points (and stopping at maintenance functions, which stay legitimate
// on the update path), any call edge into a maintenance function is a
// report.
func checkSearchMaintenance(pass *sigvet.Pass, decls map[*types.Func]*ast.FuncDecl) {
	edges := localEdges(pass, decls)
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
		name := fn.Name()
		if strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "search") || name == "candidates" {
			visit(fn)
		}
	}
	for fn := range reachable {
		fd := decls[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := sigvet.CalleeFunc(pass.TypesInfo, call)
			if callee == nil || !isMaintenance(callee.Name()) {
				return true
			}
			if _, local := decls[callee]; !local {
				return true
			}
			pass.Reportf(call.Pos(),
				"maintenance function %s is reachable from a search path (via %s); "+
					"flush/compact run under the write lock and belong to the update path only",
				callee.Name(), fd.Name.Name)
			return true
		})
	}
}

// isMaintenance mirrors pageacct's carve-out: memtable flushes and
// segment compaction.
func isMaintenance(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "flush") || strings.HasPrefix(lower, "compact")
}

// checkReadOnlyFlow enforces rule 3 with a local, syntactic data-flow
// pass: variables assigned from pagestore.ReadOnly are read-only
// stores; files Opened from them are read-only files; writing one is a
// report.
func checkReadOnlyFlow(pass *sigvet.Pass, fd *ast.FuncDecl) {
	roStores := make(map[types.Object]bool)
	roFiles := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				lhs, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[lhs]
				if obj == nil {
					obj = pass.TypesInfo.Uses[lhs]
				}
				if obj == nil {
					continue
				}
				if sigvet.IsMethodCallIn(pass.TypesInfo, call, "pagestore", "ReadOnly") {
					roStores[obj] = true
				}
				if fn := sigvet.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Name() == "Open" {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if recv := sigvet.RootIdentObject(pass.TypesInfo, sel.X); recv != nil && roStores[recv] {
							roFiles[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if !sigvet.IsMethodCallIn(pass.TypesInfo, n, "pagestore", "WritePage", "Allocate") {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv := sigvet.RootIdentObject(pass.TypesInfo, sel.X); recv != nil && roFiles[recv] {
				pass.Reportf(n.Pos(),
					"write through a ReadOnly store view: %s on a file opened from pagestore.ReadOnly "+
						"always fails with ErrReadOnly", sel.Sel.Name)
			}
		}
		return true
	})
}
