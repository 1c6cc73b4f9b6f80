package analysis

// The lifecycle rule table. The HMPI programming model is built from
// paired operations — a group from GroupCreate must meet GroupFree, a
// runtime from hmpi.New must meet Finalize, a nonblocking request must be
// completed — and each pairing is one Rule row. The Func summaries below
// are keyed by row, and one walker (package lifecycle) checks every row.

import (
	"go/ast"
	"strings"
)

// Rule is one acquire/discharge pairing: a handle bound from an Acquire
// call must reach a discharge on the paths the analysis can follow, or
// escape to an owner that will.
type Rule struct {
	// Name and Doc identify the analyzer that checks the row.
	Name, Doc string
	// Acquire lists the calls whose result is an owned handle. A bare
	// name matches any call of that name (x.Name or Name); "pkg.Name"
	// matches only the package-qualified call.
	Acquire []string
	// DischargeArgs lists the calls that discharge every handle their
	// arguments name, directly or inside slice literals.
	DischargeArgs []string
	// DischargeRecv lists the methods that discharge their receiver when
	// called with no arguments.
	DischargeRecv []string
	// ReadOnly lists the calls that read handle arguments without taking
	// them.
	ReadOnly []string
	// Never is reported at an acquire whose handle is never discharged
	// and never escapes; MayLeak at a return crossed while a handle that
	// is discharged elsewhere is still live. Both format the acquiring
	// call's name.
	Never, MayLeak string
	// Discarded, when set, is reported at an acquire whose result is
	// dropped (a call statement or a blank binding). When empty, a
	// discarded result is an accepted fire-and-forget.
	Discarded string
}

// The rule rows, indexing Rules and the per-rule Func summaries.
const (
	GroupRule = iota
	RequestRule
	RuntimeRule
	numRules
)

// Rules is the lifecycle rule table.
var Rules = [numRules]Rule{
	GroupRule: {
		Name:          "groupfree",
		Doc:           "report HMPI groups created but not released with GroupFree on all analysable paths",
		Acquire:       []string{"GroupCreate", "GroupCreateChild", "GroupCreateWithOptions", "GroupCreateChildWithOptions", "GroupRecreate"},
		DischargeArgs: []string{"GroupFree", "GroupRecreate"},
		ReadOnly:      []string{"IsMember"},
		Never:         "result of %s is never freed: missing GroupFree",
		MayLeak:       "group from %s may leak: return without GroupFree on this path",
	},
	RequestRule: {
		Name:          "reqwait",
		Doc:           "report nonblocking requests bound from Isend/Irecv/... but not completed with Wait/Test on all analysable paths",
		Acquire:       []string{"Isend", "IsendOwned", "Irecv", "Ibcast", "Iallreduce"},
		DischargeArgs: []string{"WaitAll", "WaitAny"},
		DischargeRecv: []string{"Wait", "Test"},
		Never:         "request from %s is never completed: missing Wait or Test",
		MayLeak:       "request from %s may be left pending: return without Wait on this path",
	},
	RuntimeRule: {
		Name:          "runtimeclose",
		Doc:           "report runtimes from hmpi.New that never reach Finalize and never escape",
		Acquire:       []string{"hmpi.New"},
		DischargeRecv: []string{"Finalize"},
		Never:         "runtime from %s is never finalized: missing Finalize (defer it next to New)",
		MayLeak:       "runtime from %s may leak: return without Finalize on this path",
		Discarded:     "result of %s discarded: the runtime can never reach Finalize",
	},
}

// Acquires returns the Acquire spelling the call matches, or "".
func (r *Rule) Acquires(call *ast.CallExpr) string { return matchCall(call, r.Acquire) }

// DischargesArgs reports whether the call discharges the handles its
// arguments name.
func (r *Rule) DischargesArgs(call *ast.CallExpr) bool { return matchCall(call, r.DischargeArgs) != "" }

// IsReadOnly reports whether the call only reads its handle arguments.
func (r *Rule) IsReadOnly(call *ast.CallExpr) bool { return matchCall(call, r.ReadOnly) != "" }

// DischargedRecv returns the receiver of a no-argument discharge method
// call (r.Wait(), rt.Finalize()), or nil.
func (r *Rule) DischargedRecv(call *ast.CallExpr) *ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 || matchCall(call, r.DischargeRecv) == "" {
		return nil
	}
	id, _ := sel.X.(*ast.Ident)
	return id
}

// matchCall returns the first spelling in names the call matches, or "".
func matchCall(call *ast.CallExpr, names []string) string {
	for _, n := range names {
		pkg, fn, qualified := strings.Cut(n, ".")
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if !qualified && fun.Name == n {
				return n
			}
		case *ast.SelectorExpr:
			if !qualified && fun.Sel.Name == n {
				return n
			}
			if id, ok := fun.X.(*ast.Ident); ok && qualified && id.Name == pkg && fun.Sel.Name == fn {
				return n
			}
		}
	}
	return ""
}

// DischargeArg splits one argument of a discharge-by-argument call: each
// identifier it names — directly, in parens, or as a slice-literal
// element — goes to take, which reports whether it was a handle; every
// other expression, and each identifier take declines, goes to rest.
func DischargeArg(e ast.Expr, take func(name string) bool, rest func(ast.Expr)) {
	switch x := e.(type) {
	case *ast.Ident:
		if take(x.Name) {
			return
		}
	case *ast.ParenExpr:
		DischargeArg(x.X, take, rest)
		return
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			DischargeArg(el, take, rest)
		}
		return
	}
	rest(e)
}
