// Package compile lowers a parsed P4 program (package ast) to the executable
// IR (package ir).
//
// Compilation performs name resolution, type checking (bit widths, header
// validity operations, match kinds), header-instance flattening, constant
// folding of select keysets and default-action arguments, and pipeline
// assembly from the package instantiation. All errors carry source
// positions and are accumulated so one compile reports every problem.
package compile

import (
	"errors"
	"fmt"
	"math/big"

	"netdebug/internal/bitfield"
	"netdebug/internal/p4/ast"
	"netdebug/internal/p4/ir"
	"netdebug/internal/p4/parser"
	"netdebug/internal/p4/token"
)

// StdMetaTypeName is the builtin metadata struct every program may use.
const StdMetaTypeName = "standard_metadata_t"

// stdMetaFields mirrors the v1model intrinsic metadata NetDebug models.
// Order must match the ir.StdMeta* indices.
var stdMetaFields = []ir.FieldDef{
	{Name: "ingress_port", Width: 9},
	{Name: "egress_spec", Width: 9},
	{Name: "egress_port", Width: 9},
	{Name: "packet_length", Width: 32},
	{Name: "parser_error", Width: 8},
}

// Compile parses and compiles P4 source text in one step.
func Compile(src string) (*ir.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	out, err := Lower(prog)
	if out != nil {
		out.Source = src
	}
	return out, err
}

// Lower compiles a parsed AST to IR.
func Lower(prog *ast.Program) (*ir.Program, error) {
	c := newCompiler(prog)
	out := c.run()
	if len(c.errs) > 0 {
		return nil, errors.Join(c.errs...)
	}
	return out, nil
}

type constVal struct {
	val   *big.Int
	width int // -1 if unsized
}

type compiler struct {
	src  *ast.Program
	errs []error

	headerDecls map[string]*ast.HeaderDecl
	structDecls map[string]*ast.StructDecl
	typedefs    map[string]*ast.TypeRef
	consts      map[string]constVal

	headerTypes map[string]*ir.HeaderType
	instances   []*ir.HeaderInst
	instByKey   map[string]int // "<structType>.<fieldPath>" or "<structType>"

	parserDecls  map[string]*ast.ParserDecl
	controlDecls map[string]*ast.ControlDecl

	out *ir.Program
}

func newCompiler(prog *ast.Program) *compiler {
	return &compiler{
		src:          prog,
		headerDecls:  map[string]*ast.HeaderDecl{},
		structDecls:  map[string]*ast.StructDecl{},
		typedefs:     map[string]*ast.TypeRef{},
		consts:       map[string]constVal{},
		headerTypes:  map[string]*ir.HeaderType{},
		instByKey:    map[string]int{},
		parserDecls:  map[string]*ast.ParserDecl{},
		controlDecls: map[string]*ast.ControlDecl{},
	}
}

func (c *compiler) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *compiler) run() *ir.Program {
	// Builtin standard metadata struct.
	c.structDecls[StdMetaTypeName] = &ast.StructDecl{Name: StdMetaTypeName}

	var inst *ast.InstantiationDecl
	for _, d := range c.src.Decls {
		switch d := d.(type) {
		case *ast.HeaderDecl:
			if _, dup := c.headerDecls[d.Name]; dup {
				c.errorf(d.P, "duplicate header %q", d.Name)
			}
			c.headerDecls[d.Name] = d
		case *ast.StructDecl:
			if _, dup := c.structDecls[d.Name]; dup {
				c.errorf(d.P, "duplicate struct %q", d.Name)
			}
			c.structDecls[d.Name] = d
		case *ast.TypedefDecl:
			c.typedefs[d.Name] = d.Type
		case *ast.ConstDecl:
			v, w := c.evalConst(d.Value)
			if v == nil {
				continue
			}
			declW := c.typeWidth(d.Type)
			if declW > 0 {
				w = declW
				v = truncBig(v, w)
			}
			c.consts[d.Name] = constVal{val: v, width: w}
		case *ast.ParserDecl:
			c.parserDecls[d.Name] = d
		case *ast.ControlDecl:
			c.controlDecls[d.Name] = d
		case *ast.InstantiationDecl:
			if inst != nil {
				c.errorf(d.P, "multiple package instantiations")
			}
			inst = d
		}
	}

	// Resolve header types up front.
	for name, hd := range c.headerDecls {
		c.headerTypes[name] = c.lowerHeaderType(hd)
	}

	parserName, controlNames, deparserName := c.pipelineRoles(inst)
	if len(c.errs) > 0 && parserName == "" {
		return nil
	}

	c.out = &ir.Program{Name: "main", StdMeta: -1}
	pd := c.parserDecls[parserName]
	if pd == nil {
		c.errorf(token.Pos{}, "no parser declaration found")
		return nil
	}
	// Flatten instances for every struct-typed parameter of every block in
	// the pipeline, so all blocks share instance indices.
	c.flattenParams(pd.Params)
	for _, cn := range controlNames {
		if cd := c.controlDecls[cn]; cd != nil {
			c.flattenParams(cd.Params)
		}
	}
	if dd := c.controlDecls[deparserName]; dd != nil {
		c.flattenParams(dd.Params)
	}
	c.out.Instances = c.instances

	c.out.Parser = c.lowerParser(pd)
	for _, cn := range controlNames {
		cd := c.controlDecls[cn]
		if cd == nil {
			c.errorf(token.Pos{}, "control %q not declared", cn)
			continue
		}
		c.out.Controls = append(c.out.Controls, c.lowerControl(cd))
	}
	for i, t := range c.out.Tables() {
		t.Index = i
	}
	if dd := c.controlDecls[deparserName]; dd != nil {
		c.out.Deparser = c.lowerDeparser(dd)
	} else {
		c.errorf(token.Pos{}, "no deparser control found")
	}

	// Collect header types in deterministic order.
	seen := map[string]bool{}
	for _, in := range c.instances {
		if !seen[in.Type.Name] {
			seen[in.Type.Name] = true
			c.out.HeaderTypes = append(c.out.HeaderTypes, in.Type)
		}
	}
	return c.out
}

// pipelineRoles determines which declarations play parser, match-action
// controls, and deparser. With an explicit instantiation the argument order
// is used; otherwise roles are inferred from signatures in source order.
func (c *compiler) pipelineRoles(inst *ast.InstantiationDecl) (parserName string, controls []string, deparserName string) {
	if inst != nil {
		for _, arg := range inst.Args {
			switch {
			case c.parserDecls[arg] != nil:
				if parserName != "" {
					c.errorf(inst.P, "multiple parsers in instantiation")
				}
				parserName = arg
			case c.controlDecls[arg] != nil:
				if c.isDeparser(c.controlDecls[arg]) {
					if deparserName != "" {
						c.errorf(inst.P, "multiple deparsers in instantiation")
					}
					deparserName = arg
				} else {
					controls = append(controls, arg)
				}
			default:
				c.errorf(inst.P, "instantiation argument %q is not a parser or control", arg)
			}
		}
		if parserName == "" {
			c.errorf(inst.P, "instantiation has no parser")
		}
		if deparserName == "" {
			c.errorf(inst.P, "instantiation has no deparser (control with a packet_out parameter)")
		}
		return parserName, controls, deparserName
	}
	// Fallback: infer from source order.
	for _, d := range c.src.Decls {
		switch d := d.(type) {
		case *ast.ParserDecl:
			if parserName == "" {
				parserName = d.Name
			}
		case *ast.ControlDecl:
			if c.isDeparser(d) {
				if deparserName == "" {
					deparserName = d.Name
				}
			} else {
				controls = append(controls, d.Name)
			}
		}
	}
	if parserName == "" {
		c.errorf(token.Pos{}, "program has no parser")
	}
	if deparserName == "" {
		c.errorf(token.Pos{}, "program has no deparser (control with a packet_out parameter)")
	}
	return parserName, controls, deparserName
}

func (c *compiler) isDeparser(d *ast.ControlDecl) bool {
	for _, p := range d.Params {
		if p.Type.Name == "packet_out" {
			return true
		}
	}
	return false
}

// resolveType chases typedefs to a base TypeRef.
func (c *compiler) resolveType(t *ast.TypeRef) *ast.TypeRef {
	for i := 0; i < 32; i++ {
		if t.IsBit() || t.Name == "bool" {
			return t
		}
		td, ok := c.typedefs[t.Name]
		if !ok {
			return t
		}
		t = td
	}
	c.errorf(t.P, "typedef cycle at %q", t.Name)
	return t
}

// typeWidth returns the bit width of a type usable as a value (bit<N>,
// bool, or typedef thereof), or 0.
func (c *compiler) typeWidth(t *ast.TypeRef) int {
	t = c.resolveType(t)
	if t.IsBit() {
		return t.Width
	}
	if t.Name == "bool" {
		return 1
	}
	return 0
}

func (c *compiler) lowerHeaderType(hd *ast.HeaderDecl) *ir.HeaderType {
	ht := &ir.HeaderType{Name: hd.Name}
	off := 0
	for _, f := range hd.Fields {
		w := c.typeWidth(f.Type)
		if w <= 0 {
			c.errorf(f.P, "header field %s.%s must have bit<N> type", hd.Name, f.Name)
			w = 1
		}
		ht.Fields = append(ht.Fields, ir.FieldDef{Name: f.Name, Width: w, Offset: off})
		off += w
	}
	ht.Bits = off
	if off%8 != 0 {
		c.errorf(hd.P, "header %q is %d bits; headers must be byte-aligned", hd.Name, off)
	}
	return ht
}

// flattenParams creates header instances for every struct-typed parameter.
// Instances are keyed by struct type and field path so that the same
// headers struct passed to multiple blocks maps to the same instances.
func (c *compiler) flattenParams(params []*ast.Param) {
	for _, p := range params {
		t := c.resolveType(p.Type)
		if t.IsBit() || t.Name == "bool" || t.Name == "packet_in" || t.Name == "packet_out" {
			continue
		}
		if t.Name == StdMetaTypeName {
			c.ensureStdMeta()
			continue
		}
		if sd, ok := c.structDecls[t.Name]; ok {
			c.flattenStruct(sd, t.Name, "")
			continue
		}
		if _, ok := c.headerDecls[t.Name]; ok {
			c.errorf(p.P, "parameter %q: bare header parameters are not supported; wrap %q in a struct", p.Name, t.Name)
			continue
		}
		c.errorf(p.P, "parameter %q has unknown type %q", p.Name, t.Name)
	}
}

func (c *compiler) ensureStdMeta() int {
	if idx, ok := c.instByKey[StdMetaTypeName]; ok {
		return idx
	}
	ht := &ir.HeaderType{Name: StdMetaTypeName}
	off := 0
	for _, f := range stdMetaFields {
		ht.Fields = append(ht.Fields, ir.FieldDef{Name: f.Name, Width: f.Width, Offset: off})
		off += f.Width
	}
	ht.Bits = off
	idx := c.addInstance("standard_metadata", ht, true, StdMetaTypeName)
	c.out.StdMeta = idx
	return idx
}

func (c *compiler) addInstance(name string, ht *ir.HeaderType, metadata bool, key string) int {
	idx := len(c.instances)
	c.instances = append(c.instances, &ir.HeaderInst{
		Name: name, Type: ht, Index: idx, Metadata: metadata,
	})
	c.instByKey[key] = idx
	return idx
}

// flattenStruct walks a struct type, creating one instance per header field
// and one synthetic metadata instance for any bit/bool fields. display is
// the dotted field path from the top-level struct ("" at the top), used for
// diagnostic instance names.
func (c *compiler) flattenStruct(sd *ast.StructDecl, key, display string) {
	if _, done := c.instByKey[key+"\x00done"]; done {
		return
	}
	c.instByKey[key+"\x00done"] = -1
	join := func(base, name string) string {
		if base == "" {
			return name
		}
		return base + "." + name
	}
	var metaFields []ir.FieldDef
	for _, f := range sd.Fields {
		ft := c.resolveType(f.Type)
		switch {
		case ft.IsBit() || ft.Name == "bool":
			metaFields = append(metaFields, ir.FieldDef{Name: f.Name, Width: c.typeWidth(ft)})
		case c.headerDecls[ft.Name] != nil:
			fkey := key + "." + f.Name
			if _, exists := c.instByKey[fkey]; !exists {
				c.addInstance(join(display, f.Name), c.headerTypes[ft.Name], false, fkey)
			}
		case c.structDecls[ft.Name] != nil:
			c.flattenStruct(c.structDecls[ft.Name], key+"."+f.Name, join(display, f.Name))
		default:
			c.errorf(f.P, "struct field %s.%s has unknown type %q", sd.Name, f.Name, ft.Name)
		}
	}
	if len(metaFields) > 0 {
		ht := &ir.HeaderType{Name: sd.Name + ".meta"}
		off := 0
		for _, f := range metaFields {
			ht.Fields = append(ht.Fields, ir.FieldDef{Name: f.Name, Width: f.Width, Offset: off})
			off += f.Width
		}
		ht.Bits = off
		name := display
		if name == "" {
			name = sd.Name
		}
		if _, exists := c.instByKey[key+"\x00meta"]; !exists {
			c.addInstance(name, ht, true, key+"\x00meta")
		}
	}
}

// truncBig truncates v to w bits.
func truncBig(v *big.Int, w int) *big.Int {
	mask := new(big.Int).Lsh(big.NewInt(1), uint(w))
	mask.Sub(mask, big.NewInt(1))
	return new(big.Int).And(v, mask)
}

// bigToValue converts a big.Int constant to a bitfield.Value of width w.
func bigToValue(v *big.Int, w int) bitfield.Value {
	t := truncBig(v, w)
	lo := new(big.Int).And(t, new(big.Int).SetUint64(^uint64(0))).Uint64()
	hi := new(big.Int).Rsh(t, 64).Uint64()
	return bitfield.New128(hi, lo, w)
}

// evalConst folds a constant expression, returning its value and width
// (-1 when unsized). Errors are reported and (nil, 0) returned.
func (c *compiler) evalConst(e ast.Expr) (*big.Int, int) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, e.Width
	case *ast.BoolLit:
		if e.Value {
			return big.NewInt(1), 1
		}
		return big.NewInt(0), 1
	case *ast.PathExpr:
		if len(e.Parts) == 1 {
			if cv, ok := c.consts[e.Parts[0]]; ok {
				return cv.val, cv.width
			}
		}
		c.errorf(e.P, "%s is not a compile-time constant", e)
		return nil, 0
	case *ast.UnaryExpr:
		v, w := c.evalConst(e.X)
		if v == nil {
			return nil, 0
		}
		switch e.Op {
		case token.MINUS:
			return new(big.Int).Neg(v), w
		case token.TILDE:
			if w <= 0 {
				c.errorf(e.P, "~ on unsized constant")
				return nil, 0
			}
			return new(big.Int).Sub(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w)), big.NewInt(1)), v), w
		case token.NOT:
			if v.Sign() == 0 {
				return big.NewInt(1), 1
			}
			return big.NewInt(0), 1
		}
	case *ast.BinaryExpr:
		x, wx := c.evalConst(e.X)
		y, wy := c.evalConst(e.Y)
		if x == nil || y == nil {
			return nil, 0
		}
		w := wx
		if w < 0 {
			w = wy
		}
		out := new(big.Int)
		switch e.Op {
		case token.PLUS:
			out.Add(x, y)
		case token.MINUS:
			out.Sub(x, y)
		case token.STAR:
			out.Mul(x, y)
		case token.AND:
			out.And(x, y)
		case token.OR:
			out.Or(x, y)
		case token.XOR:
			out.Xor(x, y)
		case token.SHL, token.SHR:
			switch {
			case w > 0 && y.Cmp(big.NewInt(int64(w))) >= 0:
				// Shifted by its width or more a sized value is 0 (ir.ShiftCount).
			case y.Sign() < 0 || y.Cmp(big.NewInt(bitfield.MaxWidth)) > 0:
				c.errorf(e.P, "shift count %s outside [0,%d]", y, bitfield.MaxWidth)
				return nil, 0
			case e.Op == token.SHL:
				out.Lsh(x, uint(y.Uint64()))
			default:
				out.Rsh(x, uint(y.Uint64()))
			}
		default:
			c.errorf(e.P, "operator %s not allowed in constant expression", e.Op)
			return nil, 0
		}
		if w > 0 {
			out = truncBig(out, w)
		}
		return out, w
	}
	c.errorf(e.Pos(), "expression is not a compile-time constant")
	return nil, 0
}
