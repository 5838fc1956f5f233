package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the whole-module static call graph the interprocedural
// callpath check uses. The graph is
// deliberately simple and conservative:
//
//   - Nodes are declared functions/methods (in-module and, lazily, the
//     external stdlib functions the module calls) plus every function
//     literal. Literals are NOT folded into their enclosing function —
//     a closure handed to a scheduler runs in a different context than
//     the function that built it — but each literal carries a Parent
//     pointer and a "ref" edge from its enclosing function.
//   - Edges are "call" (direct static call), "ref" (a function value
//     taken without being called — it may be called later, so
//     reachability treats it as a call), and "iface" (a call through an
//     interface method, expanded to every in-module named type that
//     implements the interface — a deliberate over-approximation).
//   - Calls through function-typed variables and parameters are not
//     resolved; the "ref" edge at the point the function value was
//     taken is the conservative stand-in for them.
//
// Raw-concurrency facts (go statements, channel operations, sync use)
// are recorded per node while walking, so transitive checks can ask
// "does anything reachable from here spawn host concurrency?".

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a direct static call.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function value taken without being called; it may be
	// invoked later, so reachability follows it like a call.
	EdgeRef
	// EdgeIface is an interface-dispatch edge to one possible concrete
	// method (over-approximated over the module's named types).
	EdgeIface
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	case EdgeIface:
		return "iface"
	}
	return "?"
}

// CGEdge is one outgoing edge of a call-graph node.
type CGEdge struct {
	To   *CGNode
	Pos  token.Pos // call site / reference site
	Kind EdgeKind
}

// Fact is one raw-concurrency construct observed inside a function body.
type Fact struct {
	Pos  token.Pos
	What string
}

// CGNode is one function in the call graph: a declared function or
// method (Obj != nil), a function literal (Lit != nil), or an external
// function the module calls but whose body is not analyzed (Pkg == nil,
// Obj != nil).
type CGNode struct {
	Obj    *types.Func   // declared function object; nil for literals
	Lit    *ast.FuncLit  // literal; nil for declarations
	Parent *CGNode       // enclosing function, for literals
	Pkg    *Package      // owning module package; nil for external nodes
	Decl   *ast.FuncDecl // declaration AST, for in-module declarations
	Edges  []CGEdge
	Conc   []Fact // raw-concurrency facts in this body

	name string
}

// External reports whether the node is a function outside the module
// (its body was not analyzed).
func (n *CGNode) External() bool { return n.Pkg == nil && n.Lit == nil }

// Name returns a compact display name: "mem.(*System).writeback",
// "time.Now", "machine.Run$1" for the first literal inside machine.Run.
func (n *CGNode) Name() string { return n.name }

// Pos returns the node's declaration position (NoPos for externals).
func (n *CGNode) Pos() token.Pos {
	switch {
	case n.Lit != nil:
		return n.Lit.Pos()
	case n.Decl != nil:
		return n.Decl.Name.Pos()
	}
	return token.NoPos
}

// CallGraph is the module-wide call graph. Node order is deterministic:
// declaration order within load order, literals in lexical order after
// their enclosing declaration, externals in first-use order.
type CallGraph struct {
	Fset  *token.FileSet
	nodes []*CGNode
	byObj map[*types.Func]*CGNode
}

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*CGNode { return g.nodes }

// BuildCallGraph constructs the call graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*CGNode),
	}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	// Pass 1: a node per declared function, in deterministic order, so
	// edge resolution in pass 2 can target any declaration regardless of
	// package load order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &CGNode{Obj: obj, Pkg: pkg, Decl: fd, name: declName(obj)}
				g.nodes = append(g.nodes, n)
				g.byObj[obj] = n
			}
		}
	}
	// Pass 2: walk bodies, creating literal nodes and resolving edges.
	b := &graphBuilder{g: g, pkgs: pkgs}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				b.walkBody(g.byObj[obj], pkg, fd.Body)
			}
		}
	}
	return g
}

// declName renders "pkg.Func" or "pkg.(*Recv).Method".
func declName(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		star := ""
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			star = "*"
		}
		if named, ok := recv.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, star, named.Obj().Name(), obj.Name())
		}
	}
	return pkg + obj.Name()
}

// graphBuilder carries pass-2 state.
type graphBuilder struct {
	g    *CallGraph
	pkgs []*Package
	// namedTypes caches the module's named types for interface-dispatch
	// expansion, in deterministic order.
	namedTypes []*types.Named
}

// moduleNamed returns every named (non-interface, non-alias) type
// declared in the module, in deterministic order.
func (b *graphBuilder) moduleNamed() []*types.Named {
	if b.namedTypes != nil {
		return b.namedTypes
	}
	b.namedTypes = []*types.Named{} // non-nil marks "computed"
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Assign.IsValid() {
						continue // skip aliases
					}
					obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if obj == nil {
						continue
					}
					named, ok := obj.Type().(*types.Named)
					if !ok {
						continue
					}
					if _, isIface := named.Underlying().(*types.Interface); isIface {
						continue
					}
					b.namedTypes = append(b.namedTypes, named)
				}
			}
		}
	}
	return b.namedTypes
}

// external returns (creating on first use) the node for a function
// declared outside the module.
func (b *graphBuilder) external(obj *types.Func) *CGNode {
	if n := b.g.byObj[obj]; n != nil {
		return n
	}
	n := &CGNode{Obj: obj, name: declName(obj)}
	b.g.nodes = append(b.g.nodes, n)
	b.g.byObj[obj] = n
	return n
}

// walkBody resolves edges and facts for one function body, creating
// child nodes for literals as they appear.
func (b *graphBuilder) walkBody(from *CGNode, pkg *Package, body ast.Node) {
	info := pkg.Info
	litIndex := 0
	// callees collects expressions appearing in call position so the
	// function-value scan below does not double-count them as refs;
	// skipSel marks selector Sel identifiers, which are resolved through
	// their SelectorExpr rather than as bare identifiers.
	callees := make(map[ast.Expr]bool)
	skipSel := make(map[*ast.Ident]bool)

	var walk func(cur *CGNode, n ast.Node)
	inspect := func(cur *CGNode) func(ast.Node) bool {
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				litIndex++
				child := &CGNode{
					Lit:    n,
					Parent: cur,
					Pkg:    pkg,
					name:   fmt.Sprintf("%s$%d", from.Name(), litIndex),
				}
				b.g.nodes = append(b.g.nodes, child)
				// The enclosing function holds a reference to the literal;
				// whether and where it runs is up to whoever receives it.
				cur.Edges = append(cur.Edges, CGEdge{To: child, Pos: n.Pos(), Kind: EdgeRef})
				walk(child, n.Body)
				return false // children handled by the recursive walk
			case *ast.CallExpr:
				b.resolveCall(cur, pkg, n, callees)
			case *ast.Ident:
				if !callees[n] && !skipSel[n] {
					if obj, ok := info.Uses[n].(*types.Func); ok {
						cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(obj), Pos: n.Pos(), Kind: EdgeRef})
					}
				}
			case *ast.SelectorExpr:
				skipSel[n.Sel] = true
				if !callees[n] {
					b.resolveSelectorRef(cur, pkg, n)
				}
				// Record sync / sync-atomic use as a concurrency fact,
				// both as qualified identifiers (sync.OnceFunc) and as
				// method calls on sync-typed values (mu.Lock).
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[id].(*types.PkgName); ok {
						if p := pn.Imported().Path(); p == "sync" || p == "sync/atomic" {
							cur.Conc = append(cur.Conc, Fact{n.Pos(), "sync primitive " + id.Name + "." + n.Sel.Name})
						}
					}
				}
				if s, ok := info.Selections[n]; ok && s.Kind() == types.MethodVal {
					if named := namedRecv(s.Recv()); named != nil {
						if tp := named.Obj().Pkg(); tp != nil && (tp.Path() == "sync" || tp.Path() == "sync/atomic") {
							cur.Conc = append(cur.Conc, Fact{n.Pos(), "sync primitive method " + named.Obj().Name() + "." + n.Sel.Name})
						}
					}
				}
			case *ast.GoStmt:
				cur.Conc = append(cur.Conc, Fact{n.Pos(), "go statement spawns a host goroutine"})
			case *ast.SelectStmt:
				cur.Conc = append(cur.Conc, Fact{n.Pos(), "select waits on host channels"})
			case *ast.SendStmt:
				cur.Conc = append(cur.Conc, Fact{n.Pos(), "channel send"})
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					cur.Conc = append(cur.Conc, Fact{n.Pos(), "channel receive"})
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						cur.Conc = append(cur.Conc, Fact{n.Pos(), "range over a channel"})
					}
				}
			}
			return true
		}
	}
	walk = func(cur *CGNode, n ast.Node) {
		ast.Inspect(n, inspect(cur))
	}
	walk(from, body)
}

// funcNode returns the node for obj, creating an external node if the
// function lives outside the module.
func (b *graphBuilder) funcNode(obj *types.Func) *CGNode {
	if n := b.g.byObj[obj]; n != nil {
		return n
	}
	return b.external(obj)
}

// resolveCall adds edges for one call expression.
func (b *graphBuilder) resolveCall(cur *CGNode, pkg *Package, call *ast.CallExpr, callees map[ast.Expr]bool) {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		callees[fun] = true
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(obj), Pos: call.Lparen, Kind: EdgeCall})
		}
		// Builtins, conversions, and func-typed variables resolve to
		// nothing: variables are covered by the ref edge taken where the
		// value was produced.
	case *ast.SelectorExpr:
		callees[fun] = true
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
				return // func-typed struct field: unresolvable here
			}
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				return
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				b.expandIface(cur, iface, m.Name(), call.Lparen)
				return
			}
			cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(m), Pos: call.Lparen, Kind: EdgeCall})
			return
		}
		// Qualified identifier pkg.F, or a conversion.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(obj), Pos: call.Lparen, Kind: EdgeCall})
		}
	case *ast.FuncLit:
		// (func(){...})() — the literal's node is created when the walk
		// reaches it, and the ref edge added there already carries
		// reachability; nothing further to resolve.
	}
}

// resolveSelectorRef adds a ref edge for a method value or qualified
// function taken without being called (handed to a scheduler, stored).
func (b *graphBuilder) resolveSelectorRef(cur *CGNode, pkg *Package, sel *ast.SelectorExpr) {
	info := pkg.Info
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
			return
		}
		m, _ := s.Obj().(*types.Func)
		if m == nil {
			return
		}
		if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
			b.expandIface(cur, iface, m.Name(), sel.Pos())
			return
		}
		cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(m), Pos: sel.Pos(), Kind: EdgeRef})
		return
	}
	if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
		cur.Edges = append(cur.Edges, CGEdge{To: b.funcNode(obj), Pos: sel.Pos(), Kind: EdgeRef})
	}
}

// expandIface adds an edge to method name on every module named type
// implementing iface — the over-approximation for dynamic dispatch.
func (b *graphBuilder) expandIface(cur *CGNode, iface *types.Interface, name string, pos token.Pos) {
	if iface.Empty() {
		return
	}
	for _, named := range b.moduleNamed() {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, name)
		m, _ := obj.(*types.Func)
		if m == nil {
			continue
		}
		if n := b.g.byObj[m]; n != nil {
			cur.Edges = append(cur.Edges, CGEdge{To: n, Pos: pos, Kind: EdgeIface})
		}
	}
}

// ReachStep records, for a node that transitively reaches a target, the
// next hop of a deterministic shortest path toward it.
type ReachStep struct {
	Next *CGNode   // next hop; nil when the node is itself a target
	Pos  token.Pos // position of the edge to Next
	Dist int       // hops to the nearest target
}

// Reach computes every node that transitively reaches a target node,
// following call, ref, and iface edges. isTarget marks the targets;
// barrier (optional) names nodes that neither transmit nor acquire
// reachability — paths through them are cut. The returned map holds a
// deterministic shortest chain via Next pointers.
func (g *CallGraph) Reach(isTarget func(*CGNode) bool, barrier func(*CGNode) bool) map[*CGNode]*ReachStep {
	blocked := func(n *CGNode) bool { return barrier != nil && barrier(n) }
	// Reverse adjacency in deterministic (node, edge) order.
	type pred struct {
		from *CGNode
		pos  token.Pos
	}
	rev := make(map[*CGNode][]pred)
	for _, n := range g.nodes {
		if blocked(n) {
			continue
		}
		for _, e := range n.Edges {
			rev[e.To] = append(rev[e.To], pred{from: n, pos: e.Pos})
		}
	}
	reach := make(map[*CGNode]*ReachStep)
	var frontier []*CGNode
	for _, n := range g.nodes {
		if isTarget(n) && !blocked(n) {
			reach[n] = &ReachStep{Dist: 0}
			frontier = append(frontier, n)
		}
	}
	for len(frontier) > 0 {
		var next []*CGNode
		for _, m := range frontier {
			d := reach[m].Dist
			for _, p := range rev[m] {
				if _, seen := reach[p.from]; seen {
					continue
				}
				reach[p.from] = &ReachStep{Next: m, Pos: p.pos, Dist: d + 1}
				next = append(next, p.from)
			}
		}
		frontier = next
	}
	return reach
}

// Chain renders the call chain from n to its target as
// "a -> b -> c", following the Reach result.
func Chain(n *CGNode, reach map[*CGNode]*ReachStep) string {
	s := n.Name()
	for step := reach[n]; step != nil && step.Next != nil; step = reach[step.Next] {
		s += " -> " + step.Next.Name()
	}
	return s
}

// ReachableFrom computes forward reachability from the given roots,
// following call, ref, and iface edges. Roots are included.
func (g *CallGraph) ReachableFrom(roots []*CGNode) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var stack []*CGNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Edges {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
