package analysis

// The dataflow layer: a cross-package view of the loaded source with
// per-function summaries, built once per Run and exposed to analyzers
// through Pass.Prog. The framework is parse-only (no type checking), so
// resolution is name-based — a call `helper(g)` resolves to every known
// function named helper with a compatible arity, preferring candidates in
// the caller's own package — and summaries merge conservatively across
// candidates. That is enough to track lifecycle handles (groups, requests,
// runtimes: one summary per row of the rules.go table) across
// helper-function boundaries, to know which functions perform collectives
// (collmatch), and to answer def-use taint queries (rank-dependence)
// within one function body.

import (
	"go/ast"
	"slices"
)

// Program is the cross-package view: every function of every loaded
// package, indexed by name, with interprocedural summaries computed to a
// fixpoint.
type Program struct {
	Pkgs []*Package
	// funcs maps a bare function or method name to its candidate
	// declarations across all packages.
	funcs map[string][]*Func
}

// Func is one function or method declaration together with its summary.
type Func struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Name is the bare declared name (methods are indexed by method
	// name; the receiver type is not consulted — parse-only analysis has
	// no reliable type identity).
	Name string

	// summary bits, computed by buildSummaries:

	// Discharges[row][i] is true when the i-th parameter reaches one of
	// the row's discharges (GroupFree, Wait, Finalize, ..., directly or
	// through a callee that discharges it) on some path.
	Discharges [numRules][]bool
	// EscapesParam[i] is true when the i-th parameter is stored,
	// returned, captured, or passed to an unknown callee — ownership may
	// transfer, so callers must not report the handle as leaked.
	EscapesParam []bool
	// Returns[row] is true when the function returns a handle of the row
	// it acquired itself (directly or through a callee that returns one):
	// the caller inherits the obligation to discharge it.
	Returns [numRules]bool
	// CollOps is the set of collective operation names the function
	// performs, directly or through known callees (transitively).
	CollOps map[string]bool
}

// NumParams returns the number of named parameters (the summary index
// space).
func (f *Func) NumParams() int { return len(f.EscapesParam) }

// paramNames flattens the declared parameter names in order. Unnamed and
// blank parameters occupy their index with "".
func paramNames(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// BuildProgram indexes the packages and computes function summaries to a
// fixpoint. Run calls it automatically; tests may call it directly.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: make(map[string][]*Func)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &Func{Pkg: pkg, Decl: fd, Name: fd.Name.Name}
				np := len(paramNames(fd))
				for r := range fn.Discharges {
					fn.Discharges[r] = make([]bool, np)
				}
				fn.EscapesParam = make([]bool, np)
				fn.CollOps = make(map[string]bool)
				prog.funcs[fn.Name] = append(prog.funcs[fn.Name], fn)
			}
		}
	}
	prog.buildSummaries()
	return prog
}

// Resolve returns the candidate declarations a call with the given bare
// name and argument count may reach. Candidates in from's package are
// preferred: when any exist, only they are returned. nargs < 0 disables
// arity filtering.
func (p *Program) Resolve(name string, nargs int, from *Package) []*Func {
	if p == nil {
		return nil
	}
	cands := p.funcs[name]
	if len(cands) == 0 {
		return nil
	}
	var local, global []*Func
	for _, f := range cands {
		if nargs >= 0 && !arityCompatible(f.Decl, nargs) {
			continue
		}
		if from != nil && f.Pkg == from {
			local = append(local, f)
		} else {
			global = append(global, f)
		}
	}
	if len(local) > 0 {
		return local
	}
	return global
}

// arityCompatible reports whether a call with nargs arguments could reach
// the declaration (exact match, or at least the fixed arguments of a
// variadic signature).
func arityCompatible(decl *ast.FuncDecl, nargs int) bool {
	params := decl.Type.Params
	if params == nil {
		return nargs == 0
	}
	n := 0
	variadic := false
	for _, field := range params.List {
		k := len(field.Names)
		if k == 0 {
			k = 1
		}
		n += k
		if _, ok := field.Type.(*ast.Ellipsis); ok {
			variadic = true
		}
	}
	if variadic {
		return nargs >= n-1
	}
	return nargs == n
}

// CalleeName extracts the bare callee name of a call expression: `f(x)`
// yields "f", `pkg.F(x)` and `recv.M(x)` yield the selector name. Calls
// through computed expressions yield "".
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// CollectiveOps are the communicator operations that every member of a
// communicator must call in the same order: a rank-dependent subset of
// members entering one is a cross-rank consistency hazard (collmatch).
var CollectiveOps = map[string]bool{
	"Barrier":       true,
	"Bcast":         true,
	"Reduce":        true,
	"Allreduce":     true,
	"Gather":        true,
	"Scatter":       true,
	"Allgather":     true,
	"Alltoall":      true,
	"ReduceScatter": true,
	"Scan":          true,
	"AgreeFailed":   true,
	"AgreeVote":     true,
	"Ibcast":        true,
	"Iallreduce":    true,
}

// CallReturns reports whether a call to the named function with the
// given argument count resolves only to functions returning a handle of
// the rule row they acquired: the caller inherits the obligation to
// discharge the result.
func (p *Program) CallReturns(row int, name string, nargs int, from *Package) bool {
	if p == nil || name == "" {
		return false
	}
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if !c.Returns[row] {
			return false
		}
	}
	return true
}

// buildSummaries computes every function's summary, iterating to a
// fixpoint so wrapper chains (a helper that calls a helper that frees)
// converge.
func (p *Program) buildSummaries() {
	changed := true
	for round := 0; changed && round < 16; round++ {
		changed = false
		for _, cands := range p.funcs {
			for _, fn := range cands {
				if p.summarize(fn) {
					changed = true
				}
			}
		}
	}
}

// summarize recomputes fn's summary bits from its body and the current
// summaries of its callees, reporting whether anything changed.
func (p *Program) summarize(fn *Func) bool {
	names := paramNames(fn.Decl)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if n != "" && n != "_" {
			idx[n] = i
		}
	}
	var discharges [numRules][]bool
	var returns [numRules]bool
	// owned[row] holds the local variables bound to handles of the row
	// the function acquired itself (directly or via a returning callee).
	var owned [numRules]map[string]bool
	for r := range discharges {
		discharges[r] = make([]bool, len(names))
		owned[r] = make(map[string]bool)
	}
	escapes := make([]bool, len(names))
	colls := make(map[string]bool)
	acquires := func(r int, call *ast.CallExpr) bool {
		return Rules[r].Acquires(call) != "" || p.CallReturns(r, CalleeName(call), len(call.Args), fn.Pkg)
	}

	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// `g, err := h.GroupCreate(...)` or `g := mk(...)` where mk
			// returns an acquired handle.
			if call, ok := x.Rhs[0].(*ast.CallExpr); ok && len(x.Rhs) == 1 {
				if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					for r := range owned {
						if acquires(r, call) {
							owned[r][id.Name] = true
						}
					}
				}
			}

		case *ast.ReturnStmt:
			for _, e := range x.Results {
				if id, ok := e.(*ast.Ident); ok {
					for r := range owned {
						returns[r] = returns[r] || owned[r][id.Name]
					}
					if i, ok := idx[id.Name]; ok {
						escapes[i] = true
					}
					continue
				}
				if call, ok := e.(*ast.CallExpr); ok {
					for r := range returns {
						returns[r] = returns[r] || acquires(r, call)
					}
				}
			}

		case *ast.CallExpr:
			name := CalleeName(x)
			if CollectiveOps[name] {
				colls[name] = true
			}
			// Classify each argument ourselves and stop the generic walk
			// (return false below): a parameter passed to a call is
			// judged by the rule table or the callee's summary, not by
			// the blanket bare-mention-escapes rule.
			descend := func(e ast.Expr) {
				if e == nil {
					return
				}
				if id, ok := e.(*ast.Ident); ok {
					if _, isParam := idx[id.Name]; isParam {
						return // classified by the caller below
					}
				}
				ast.Inspect(e, scan)
			}
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				// plain function name, not a value use
			case *ast.SelectorExpr:
				// param.Method(...): a method call on the parameter is a
				// read, not an escape of the receiver — unless the method
				// discharges it (r.Wait(), rt.Finalize()).
				descend(fun.X)
			default:
				descend(x.Fun)
			}
			cands := p.Resolve(name, len(x.Args), fn.Pkg)
			for _, c := range cands {
				for op := range c.CollOps {
					colls[op] = true
				}
			}
			for r := range Rules {
				rule := &Rules[r]
				if id := rule.DischargedRecv(x); id != nil {
					if i, ok := idx[id.Name]; ok {
						discharges[r][i] = true
					}
				}
				switch {
				case rule.DischargesArgs(x):
					take := func(name string) bool {
						i, ok := idx[name]
						if ok {
							discharges[r][i] = true
						}
						return ok
					}
					for _, a := range x.Args {
						DischargeArg(a, take, descend)
					}
					return false
				case rule.IsReadOnly(x):
					for _, a := range x.Args {
						descend(a)
					}
					return false
				}
			}
			for ai, a := range x.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					descend(a)
					continue
				}
				i, isParam := idx[id.Name]
				if !isParam {
					descend(a)
					continue
				}
				if len(cands) == 0 {
					// Unknown callee: the parameter escapes.
					escapes[i] = true
					continue
				}
				for _, c := range cands {
					for r := range discharges {
						if ai < len(c.Discharges[r]) && c.Discharges[r][ai] {
							discharges[r][i] = true
						}
					}
					if ai >= len(c.EscapesParam) || c.EscapesParam[ai] {
						escapes[i] = true
					}
				}
			}
			return false

		case *ast.SelectorExpr:
			// param.Method() / param.field reads do not escape the
			// parameter; do not descend into the base identifier.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isParam := idx[id.Name]; isParam {
					return false
				}
			}

		case *ast.Ident:
			// A bare mention outside the classified shapes above:
			// stored, compared, appended — treat as escape.
			if i, ok := idx[x.Name]; ok {
				escapes[i] = true
			}
		}
		return true
	}
	ast.Inspect(fn.Decl.Body, scan)

	changed := returns != fn.Returns || len(colls) != len(fn.CollOps) ||
		!slices.Equal(escapes, fn.EscapesParam)
	for r := range discharges {
		changed = changed || !slices.Equal(discharges[r], fn.Discharges[r])
	}
	if !changed {
		for op := range colls {
			if !fn.CollOps[op] {
				changed = true
				break
			}
		}
	}
	fn.Discharges = discharges
	fn.EscapesParam = escapes
	fn.Returns = returns
	fn.CollOps = colls
	return changed
}

// DischargesArg reports whether a call to the named function with the
// given argument count discharges its ai-th argument under the rule row
// in every resolvable candidate. Analyzers use it to treat
// `releaseGroup(g)` like a direct GroupFree.
func (p *Program) DischargesArg(row int, name string, nargs, ai int, from *Package) bool {
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if ai >= len(c.Discharges[row]) || !c.Discharges[row][ai] {
			return false
		}
	}
	return true
}

// EscapesArg reports whether a call to the named function may retain its
// ai-th argument (any candidate escapes it, or the callee is unknown).
func (p *Program) EscapesArg(name string, nargs, ai int, from *Package) bool {
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return true
	}
	for _, c := range cands {
		if ai >= len(c.EscapesParam) || c.EscapesParam[ai] {
			return true
		}
	}
	return false
}

// PerformsCollective returns the collective operations a call to the
// named function may perform (transitively), or nil when none resolve.
func (p *Program) PerformsCollective(name string, nargs int, from *Package) map[string]bool {
	if CollectiveOps[name] {
		return map[string]bool{name: true}
	}
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return nil
	}
	out := make(map[string]bool)
	for _, c := range cands {
		for op := range c.CollOps {
			out[op] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------
// Def-use chains: per-function taint queries.

// DefUse answers taint queries over one function body: an identifier is
// tainted when any of its reaching definitions (flow-insensitively, any
// assignment in the body) contains a source expression, directly or
// through other tainted identifiers.
type DefUse struct {
	// deps maps each assigned identifier to the identifiers and calls
	// appearing in its defining expressions.
	deps map[string][]ast.Expr
}

// NewDefUse builds the def-use index for one function body.
func NewDefUse(body *ast.BlockStmt) *DefUse {
	du := &DefUse{deps: make(map[string][]ast.Expr)}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Pair lhs with rhs; a multi-assign from one call taints
			// every target with the whole call.
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if len(x.Rhs) == len(x.Lhs) {
					du.deps[id.Name] = append(du.deps[id.Name], x.Rhs[i])
				} else if len(x.Rhs) > 0 {
					du.deps[id.Name] = append(du.deps[id.Name], x.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if name.Name == "_" {
					continue
				}
				if i < len(x.Values) {
					du.deps[name.Name] = append(du.deps[name.Name], x.Values[i])
				}
			}
		}
		return true
	})
	return du
}

// Tainted reports whether the expression transitively contains a source:
// either isSource(sub-expression) holds directly, or an identifier in the
// expression has a tainted definition.
func (du *DefUse) Tainted(e ast.Expr, isSource func(ast.Expr) bool) bool {
	return du.tainted(e, isSource, make(map[string]bool))
}

func (du *DefUse) tainted(e ast.Expr, isSource func(ast.Expr) bool, seen map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isSource(ex) {
			found = true
			return false
		}
		// A call that is not itself a source launders taint: its result
		// is the callee's, not a function of whichever arguments happen
		// to be tainted. Without this cut, one `f(x, rank)` call makes
		// every downstream value rank-dependent.
		if _, ok := n.(*ast.CallExpr); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			for _, def := range du.deps[id.Name] {
				if du.tainted(def, isSource, seen) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// RankSource reports whether the expression is a direct rank query — a
// call to a method named Rank. Conditions tainted by it differ across the
// processes of an SPMD program.
func RankSource(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Rank" && len(call.Args) == 0
}
