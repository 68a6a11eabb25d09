package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Qualified callee names are "pkgpath:Func" for package-level functions
// and "pkgpath:Type.Method" for methods (pointer receivers dereferenced).
// Config entries in that form (ErrDropExempt) match the member part
// exactly and the package part exactly or as a path-wise suffix, like
// every other Config entry.

// calleeQName resolves a call's callee to its qualified name and, for
// methods, the receiver expression. Empty when the callee is not a
// named function or method (builtins, func values, conversions).
func calleeQName(info *types.Info, call *ast.CallExpr) (qname string, recv ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, ok := info.Uses[fun].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", nil
		}
		return fn.Pkg().Path() + ":" + fn.Name(), nil
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return "", nil
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return fn.Pkg().Path() + ":" + fn.Name(), nil
		}
		return fn.Pkg().Path() + ":" + sigRecvTypeName(sig) + "." + fn.Name(), fun.X
	}
	return "", nil
}

// sigRecvTypeName returns the receiver's named type (pointer dereferenced).
func sigRecvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// qnameMatches reports whether a resolved callee matches a config spec:
// the member part exactly, the package part per matchPkg suffix rules.
func qnameMatches(qname, spec string) bool {
	qpkg, qrest, ok1 := strings.Cut(qname, ":")
	spkg, srest, ok2 := strings.Cut(spec, ":")
	return ok1 && ok2 && qrest == srest && matchPkg(qpkg, []string{spkg})
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// identVar resolves an identifier to the variable it defines or uses.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

func isChannelType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
