// Package lifecycle checks the paired operations of the HMPI programming
// model, one analyzer per row of the analysis.Rules table:
//
//   - groupfree: every Group from GroupCreate, GroupCreateChild or
//     GroupRecreate must reach GroupFree (or be consumed by
//     GroupRecreate). A leaked group pins its member processes busy
//     forever, so later GroupCreate calls select from a shrunken pool.
//   - reqwait: every *Request bound from Isend, IsendOwned, Irecv, Ibcast
//     or Iallreduce must reach Wait, Test, WaitAll or WaitAny. A pending
//     request leaks its payload, and its virtual time is never charged.
//     A start whose result is not bound is the accepted fire-and-forget
//     push and is not reported.
//   - runtimeclose: every Runtime from hmpi.New must reach Finalize. A
//     runtime that is never finalized keeps its world, cluster clone and
//     estimator state reachable for the life of a daemon such as hmpid.
//     Discarding the result of hmpi.New is reported outright.
//
// One walker serves every row. It is flow-sensitive within one function
// body and follows handles across function boundaries through the
// row-keyed analysis.Program summaries:
//
//   - a bound handle that is never discharged (and never escapes the
//     function) is reported at the acquire;
//   - a return statement crossed while a handle that is discharged
//     elsewhere is still live is reported, unless the enclosing branch
//     condition mentions the handle variable or its paired error (the
//     idioms `if err != nil { return }` — the handle is nil on error — and
//     `if !h.IsMember(g) { return }` — non-selected processes hold nil);
//   - a handle passed to a helper the program view can resolve is judged
//     by the helper's summary: a helper that reaches a discharge counts
//     as one, a helper that merely reads the handle leaves it live, and a
//     helper that stores or returns it takes ownership;
//   - a call resolving only to helpers that return a handle they acquired
//     starts a tracked lifetime in the caller, exactly like a direct
//     acquire.
//
// A value that escapes (returned, stored, appended to a slice, or passed
// to a call the program view cannot resolve) is trusted to be discharged
// by its new owner. The trust is body-wide: an escape below an early
// return also covers that return.
package lifecycle

import (
	"go/ast"

	"repro/internal/analysis"
)

// The three lifecycle analyzers.
var (
	GroupFree    = newAnalyzer(analysis.GroupRule)
	ReqWait      = newAnalyzer(analysis.RequestRule)
	RuntimeClose = newAnalyzer(analysis.RuntimeRule)
)

func newAnalyzer(row int) *analysis.Analyzer {
	rule := &analysis.Rules[row]
	return &analysis.Analyzer{
		Name: rule.Name,
		Doc:  rule.Doc,
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch fn := n.(type) {
					case *ast.FuncDecl:
						if fn.Body != nil {
							analyzeBody(pass, row, fn.Body)
						}
					case *ast.FuncLit:
						analyzeBody(pass, row, fn.Body)
					}
					return true
				})
			}
			return nil
		},
	}
}

// track follows one bound handle variable through the body.
type track struct {
	name    string
	errName string
	pos     ast.Node
	what    string // the acquiring call, for messages
	done    bool
	escaped bool
}

type walker struct {
	pass   *analysis.Pass
	row    int
	rule   *analysis.Rule
	tracks []*track
	// inClosure disables return-path reporting while scanning a nested
	// function literal: its returns are not the tracked function's.
	inClosure bool
	// reportable holds the acquire positions of handles discharged on
	// some path; only those get return-path reports (a handle never
	// discharged at all is reported once, at its acquire). Nil during the
	// state-collection pass, which reports nothing.
	reportable map[ast.Node]bool
}

func analyzeBody(pass *analysis.Pass, row int, body *ast.BlockStmt) {
	// Pass 1: collect final per-track state without reporting.
	w1 := &walker{pass: pass, row: row, rule: &analysis.Rules[row]}
	w1.stmts(body.List, nil)
	reportable := make(map[ast.Node]bool)
	for _, tr := range w1.tracks {
		if tr.done {
			reportable[tr.pos] = true
		}
	}
	// Pass 2: report discarded acquires, and early-return leaks for
	// handles that do get discharged somewhere.
	w2 := &walker{pass: pass, row: row, rule: w1.rule, reportable: reportable}
	w2.stmts(body.List, nil)
	for _, tr := range w1.tracks {
		if !tr.done && !tr.escaped {
			pass.Reportf(tr.pos.Pos(), w1.rule.Never, tr.what)
		}
	}
}

func (w *walker) lookup(name string) *track {
	if name == "" || name == "_" {
		return nil
	}
	// Latest registration wins: rebinding a name starts a new lifetime.
	for i := len(w.tracks) - 1; i >= 0; i-- {
		if w.tracks[i].name == name {
			return w.tracks[i]
		}
	}
	return nil
}

// discharge marks the named handle discharged, reporting whether the
// name is tracked.
func (w *walker) discharge(name string) bool {
	tr := w.lookup(name)
	if tr != nil {
		tr.done = true
	}
	return tr != nil
}

// acquire returns the name of the acquiring call when e is one: a
// direct acquire of the rule, or a call resolving only to helpers whose
// summary says they return an acquired handle (the caller inherits the
// obligation).
func (w *walker) acquire(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if what := w.rule.Acquires(call); what != "" {
		return what
	}
	if name := analysis.CalleeName(call); w.pass.Prog.CallReturns(w.row, name, len(call.Args), w.pass.Package()) {
		return name
	}
	return ""
}

// discarded reports an acquire whose result is dropped, when the rule
// counts that as a leak. Only the reporting pass of the acquire's own
// function reports it.
func (w *walker) discarded(call ast.Expr, what string) {
	if w.rule.Discarded != "" && w.reportable != nil && !w.inClosure {
		w.pass.Reportf(call.Pos(), w.rule.Discarded, what)
	}
}

// stmts walks a statement list. guards holds the identifier names
// mentioned by enclosing branch conditions; a return under such a guard
// is not reported for tracks whose handle or error variable is among
// them.
func (w *walker) stmts(list []ast.Stmt, guards map[string]bool) {
	for _, s := range list {
		w.stmt(s, guards)
	}
}

func (w *walker) stmt(s ast.Stmt, guards map[string]bool) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		w.stmts(x.List, guards)

	case *ast.AssignStmt:
		// Acquires inside a nested closure belong to that closure's own
		// analysis pass; here we only scan them for uses of our tracks.
		what := ""
		if len(x.Rhs) == 1 && !w.inClosure {
			what = w.acquire(x.Rhs[0])
		}
		id, _ := x.Lhs[0].(*ast.Ident)
		if what == "" || id == nil {
			// An assignment that stores a tracked handle anywhere marks
			// it escaped (rhs scan); lhs index/selector expressions are
			// scanned too.
			for _, e := range x.Lhs {
				w.scanExpr(e)
			}
			for _, e := range x.Rhs {
				w.scanExpr(e)
			}
			return
		}
		// Scan the call arguments first: GroupRecreate(old, ...)
		// consumes the old group.
		w.scanExpr(x.Rhs[0])
		if id.Name == "_" {
			w.discarded(x.Rhs[0], what)
			return
		}
		// Rebinding a live tracked name is treated as an escape of the
		// old value (we cannot follow both lifetimes).
		if old := w.lookup(id.Name); old != nil && !old.done {
			old.escaped = true
		}
		tr := &track{name: id.Name, pos: x, what: what}
		if len(x.Lhs) > 1 {
			if eid, ok := x.Lhs[1].(*ast.Ident); ok {
				tr.errName = eid.Name
			}
		}
		w.tracks = append(w.tracks, tr)

	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		w.scanExpr(x.Cond)
		inner := withGuards(guards, x.Cond)
		w.stmt(x.Body, inner)
		if x.Else != nil {
			w.stmt(x.Else, inner)
		}

	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond)
		}
		if x.Post != nil {
			w.stmt(x.Post, guards)
		}
		w.stmt(x.Body, guards)

	case *ast.RangeStmt:
		w.scanExpr(x.X)
		w.stmt(x.Body, guards)

	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		if x.Tag != nil {
			w.scanExpr(x.Tag)
		}
		w.stmt(x.Body, guards)

	case *ast.TypeSwitchStmt:
		w.stmt(x.Body, guards)

	case *ast.SelectStmt:
		w.stmt(x.Body, guards)

	case *ast.CaseClause:
		for _, e := range x.List {
			w.scanExpr(e)
		}
		w.stmts(x.Body, guards)

	case *ast.CommClause:
		if x.Comm != nil {
			w.stmt(x.Comm, guards)
		}
		w.stmts(x.Body, guards)

	case *ast.ReturnStmt:
		for _, e := range x.Results {
			// Returning the handle hands ownership to the caller.
			if id, ok := e.(*ast.Ident); ok {
				if tr := w.lookup(id.Name); tr != nil {
					tr.escaped = true
					continue
				}
			}
			w.scanExpr(e)
		}
		if w.inClosure || w.reportable == nil {
			return
		}
		for _, tr := range w.tracks {
			if tr.done || tr.escaped || !w.reportable[tr.pos] || guards[tr.name] || guards[tr.errName] {
				continue
			}
			w.pass.Reportf(x.Pos(), w.rule.MayLeak, tr.what)
		}

	case *ast.DeferStmt:
		w.scanExpr(x.Call)

	case *ast.ExprStmt:
		if what := w.acquire(x.X); what != "" {
			w.discarded(x.X, what)
		}
		w.scanExpr(x.X)

	case *ast.GoStmt:
		w.scanExpr(x.Call)

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}

	case *ast.LabeledStmt:
		w.stmt(x.Stmt, guards)

	case *ast.SendStmt:
		w.scanExpr(x.Chan)
		w.scanExpr(x.Value)

	case *ast.IncDecStmt:
		w.scanExpr(x.X)
	}
}

// scanExpr applies the use/discharge/escape rules to an expression tree.
func (w *walker) scanExpr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
		return

	case *ast.Ident:
		// A bare reference outside the whitelisted shapes below is an
		// escape: stored, compared, appended, passed along.
		if tr := w.lookup(x.Name); tr != nil {
			tr.escaped = true
		}

	case *ast.SelectorExpr:
		// g.Comm(), rt.Run(): a method or field access on the handle is
		// a plain use.
		if id, ok := x.X.(*ast.Ident); ok {
			if w.lookup(id.Name) != nil {
				return
			}
		}
		w.scanExpr(x.X)

	case *ast.CallExpr:
		// r.Wait(), rt.Finalize(): the method discharges its receiver.
		if id := w.rule.DischargedRecv(x); id != nil && w.discharge(id.Name) {
			return
		}
		w.scanExpr(x.Fun)
		switch {
		case w.rule.DischargesArgs(x):
			// GroupFree(g), GroupRecreate(old, ...), WaitAll(r1, r2),
			// WaitAll([]*Request{r1, r2}...): every tracked handle the
			// arguments name is discharged.
			for _, a := range x.Args {
				analysis.DischargeArg(a, w.discharge, w.scanExpr)
			}
			return
		case w.rule.IsReadOnly(x):
			// Membership tests read the handle without taking it.
			for _, a := range x.Args {
				if id, ok := a.(*ast.Ident); ok && w.lookup(id.Name) != nil {
					continue
				}
				w.scanExpr(a)
			}
			return
		}
		// A tracked handle passed to a resolvable helper is judged by the
		// helper's summary; passing it to an unknown callee escapes it
		// (trusted to be discharged elsewhere).
		name := analysis.CalleeName(x)
		prog, from := w.pass.Prog, w.pass.Package()
		for ai, a := range x.Args {
			id, ok := a.(*ast.Ident)
			if !ok {
				w.scanExpr(a)
				continue
			}
			tr := w.lookup(id.Name)
			if tr == nil {
				w.scanExpr(a)
				continue
			}
			switch {
			case prog.DischargesArg(w.row, name, len(x.Args), ai, from):
				tr.done = true
			case name == "" || prog.EscapesArg(name, len(x.Args), ai, from):
				tr.escaped = true
			}
			// Otherwise a known helper only reads the handle: a plain
			// use, the obligation stays here.
		}

	case *ast.FuncLit:
		// The closure may discharge or leak captured handles; walk it
		// with the same tracks but without treating its returns as ours.
		saved := w.inClosure
		w.inClosure = true
		w.stmts(x.Body.List, nil)
		w.inClosure = saved

	case *ast.ParenExpr:
		w.scanExpr(x.X)
	case *ast.StarExpr:
		w.scanExpr(x.X)
	case *ast.UnaryExpr:
		w.scanExpr(x.X)
	case *ast.BinaryExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Y)
	case *ast.IndexExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Index)
	case *ast.SliceExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Low)
		w.scanExpr(x.High)
		w.scanExpr(x.Max)
	case *ast.TypeAssertExpr:
		w.scanExpr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.scanExpr(el)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(x.Value)
	}
}

// withGuards extends the enclosing guards with the identifier names a
// branch condition mentions.
func withGuards(base map[string]bool, cond ast.Expr) map[string]bool {
	out := make(map[string]bool, len(base))
	for k := range base {
		out[k] = true
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}
