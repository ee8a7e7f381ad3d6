// Package enterexit checks that manual Lane instrumentation is balanced.
// The tracer keeps a shadow call stack per lane; an Enter without a
// matching Exit (or with a different function id) corrupts that stack at
// runtime and surfaces far away, as ErrStackMismatch from some innocent
// callee or as a function that never closes in the profile. This pass
// moves the check to compile time: inside one function, every
// Lane.Enter/EnterAt/EnterNow/EnterBlock must be paired with an
// Exit/ExitAt/ExitNow/ExitBlock carrying the same id expression on the same
// lane, either directly or through defer. Lane.Instrument and
// Lane.InstrumentBlock are self-balancing and always fine.
package enterexit

import (
	"go/ast"
	"go/token"

	"tempest/internal/analysis"
)

// tracePkg is the package (suffix) defining Lane.
const tracePkg = "internal/trace"

// Analyzer implements the enterexit pass.
var Analyzer = &analysis.Analyzer{
	Name: "enterexit",
	Doc: "every trace.Lane.Enter(fid) must be matched in the same function by an Exit(fid) " +
		"(directly or via defer) on the same lane; mismatched or missing ids corrupt the shadow stack",
	Run: run,
}

// site is one Enter or Exit call, keyed for matching.
type site struct {
	pos  token.Pos
	call string // method name, for diagnostics
	recv string // lane expression
	arg  string // function-id expression ("" when uncapturable)
}

func (s site) key() string { return s.recv + "\x00" + s.arg }

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkScope(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkScope analyses one balanced-instrumentation scope: a function
// body, with deferred closures folded in (the canonical
// `defer func() { _ = lane.Exit(fid) }()` shape) and all other function
// literals — goroutine bodies, callbacks — checked as scopes of their
// own, since they run on their own lane discipline.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var enters, exits []site
	folded := map[*ast.FuncLit]bool{}
	handled := map[*ast.CallExpr]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeferStmt:
			if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
				folded[fl] = true
			}
		case *ast.FuncLit:
			if folded[v] {
				return true
			}
			checkScope(pass, v.Body)
			return false
		case *ast.AssignStmt:
			// fid := lane.EnterBlock(name, block): the captured variable
			// becomes the id expression Exit must use.
			if len(v.Rhs) == 1 && len(v.Lhs) == 1 {
				if call, ok := v.Rhs[0].(*ast.CallExpr); ok {
					if s, ok := laneCall(pass, call); ok && s.call == "EnterBlock" {
						s.arg = analysis.ExprString(v.Lhs[0])
						enters = append(enters, s)
						handled[call] = true
					}
				}
			}
		case *ast.CallExpr:
			if handled[v] {
				return true
			}
			s, ok := laneCall(pass, v)
			if !ok {
				return true
			}
			switch s.call {
			case "Enter", "EnterAt", "EnterNow":
				enters = append(enters, s)
			case "EnterBlock":
				// Result discarded: nothing can exit this block id.
				pass.Reportf(s.pos, "result of Lane.EnterBlock is discarded; capture the id and Exit it, or use InstrumentBlock")
			case "Exit", "ExitAt", "ExitNow", "ExitBlock":
				exits = append(exits, s)
			}
		}
		return true
	})

	enterKeys := map[string]bool{}
	for _, e := range enters {
		enterKeys[e.key()] = true
	}
	exitKeys := map[string]bool{}
	for _, e := range exits {
		exitKeys[e.key()] = true
	}
	for _, e := range enters {
		if !exitKeys[e.key()] {
			pass.Reportf(e.pos, "%s.%s(%s) is not matched by an Exit(%s) on %s in this function; defer the Exit or use InstrumentBlock",
				e.recv, e.call, e.arg, e.arg, e.recv)
		}
	}
	// Exit-only functions (helpers handed an already-entered lane) are
	// legitimate; mismatched ids inside an entering function are not.
	if len(enters) == 0 {
		return
	}
	for _, e := range exits {
		if !enterKeys[e.key()] {
			pass.Reportf(e.pos, "%s.%s(%s) exits an id this function never entered (entered ids have different expressions)",
				e.recv, e.call, e.arg)
		}
	}
}

// laneCall classifies call as a Lane Enter/Exit-family method call.
func laneCall(pass *analysis.Pass, call *ast.CallExpr) (site, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return site{}, false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return site{}, false
	}
	name := obj.Name()
	switch name {
	case "Enter", "EnterAt", "EnterNow", "EnterBlock", "Exit", "ExitAt", "ExitNow", "ExitBlock":
	default:
		return site{}, false
	}
	if !analysis.IsMethodOn(obj, tracePkg, "Lane", name) {
		return site{}, false
	}
	s := site{pos: call.Pos(), call: name, recv: analysis.ExprString(sel.X)}
	switch name {
	case "Enter", "EnterAt", "EnterNow", "Exit", "ExitAt", "ExitNow", "ExitBlock":
		if len(call.Args) > 0 {
			s.arg = analysis.ExprString(call.Args[0])
		}
	}
	return s, true
}
