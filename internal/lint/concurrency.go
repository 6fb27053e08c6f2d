package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkNoGo bans `go` statements outside the policy table's designated
// goroutine owners. In simulator packages every goroutine is a scheduling
// dependency the determinism proof cannot see; everywhere else an ad-hoc
// goroutine is concurrency the snapshot model does not account for.
// Parallelism routes through internal/exec's worker pool, which assigns all
// inputs before any work is scheduled; background work belongs to the
// explicit owners (exec, api).
func checkNoGo(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				diags = append(diags, Diagnostic{
					Pos:     pkg.Fset.Position(g.Pos()),
					Check:   "nogo",
					Message: "go statement outside a designated goroutine owner; route parallelism through internal/exec's worker pool",
				})
			}
			return true
		})
	}
	return diags
}

// checkCopyLocks flags sync primitives copied by value: passing or returning
// a sync.Mutex / WaitGroup (or any struct or array containing one) by value,
// ranging over such values, or assigning them. A copied lock guards nothing.
// This is a focused re-implementation of vet's copylocks so `make lint`
// stands alone and fixture self-tests pin the behavior.
func checkCopyLocks(pkg *Package) []Diagnostic {
	c := &copyLocksChecker{pkg: pkg, memo: make(map[types.Type]bool)}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncDecl:
				c.checkFuncType(s.Type)
			case *ast.FuncLit:
				c.checkFuncType(s.Type)
			case *ast.RangeStmt:
				c.checkRange(s)
			case *ast.AssignStmt:
				c.checkAssign(s)
			case *ast.CallExpr:
				c.checkCallArgs(s)
			}
			return true
		})
	}
	return c.diags
}

type copyLocksChecker struct {
	pkg   *Package
	memo  map[types.Type]bool
	diags []Diagnostic
}

func (c *copyLocksChecker) report(n ast.Node, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.pkg.Fset.Position(n.Pos()),
		Check:   "copylocks",
		Message: fmt.Sprintf(format, args...),
	})
}

// checkFuncType flags lock-containing value parameters and results.
func (c *copyLocksChecker) checkFuncType(ft *ast.FuncType) {
	fields := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if t := c.pkg.Info.TypeOf(f.Type); t != nil && c.containsLock(t) {
				c.report(f.Type, "%s passes %s by value; it contains a sync primitive — use a pointer", kind, t)
			}
		}
	}
	fields(ft.Params, "parameter")
	fields(ft.Results, "result")
}

// checkRange flags `for _, v := range xs` where v copies a lock per element.
func (c *copyLocksChecker) checkRange(s *ast.RangeStmt) {
	if s.Value == nil {
		return
	}
	if t := c.pkg.Info.TypeOf(s.Value); t != nil && c.containsLock(t) {
		c.report(s.Value, "range copies %s by value per element; it contains a sync primitive", t)
	}
}

// checkAssign flags assignments that copy a lock-containing value. Composite
// literals and fresh calls construct rather than copy, so they pass.
func (c *copyLocksChecker) checkAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return // tuple from call; flagged at the callee's result type instead
	}
	for i, rhs := range s.Rhs {
		t := c.pkg.Info.TypeOf(rhs)
		if t == nil || !c.containsLock(t) {
			continue
		}
		switch ast.Unparen(rhs).(type) {
		case *ast.CompositeLit, *ast.CallExpr:
			continue // construction, not a copy
		}
		c.report(s.Lhs[i], "assignment copies %s by value; it contains a sync primitive", t)
	}
}

// checkCallArgs flags lock-containing values passed by value as arguments.
func (c *copyLocksChecker) checkCallArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if _, ok := ast.Unparen(arg).(*ast.CompositeLit); ok {
			continue
		}
		if t := c.pkg.Info.TypeOf(arg); t != nil && c.containsLock(t) {
			c.report(arg, "call passes %s by value; it contains a sync primitive — pass a pointer", t)
		}
	}
}

// lockTypes are the sync types that must never be copied after first use.
var lockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Pool": true, "Map": true,
}

// containsLock reports whether t directly embeds a sync primitive by value
// (the type itself, a struct field, or an array element — not behind a
// pointer, slice, map, or channel).
func (c *copyLocksChecker) containsLock(t types.Type) bool {
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // break cycles; recursive types can't embed by value anyway
	v := c.containsLockUncached(t)
	c.memo[t] = v
	return v
}

func (c *copyLocksChecker) containsLockUncached(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypes[obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if c.containsLock(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.containsLock(u.Elem())
	}
	return false
}
