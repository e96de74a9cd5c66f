package kernel

import "strconv"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks  []Token
	pos   int
	depth int // open statements and expressions, see nest
}

// maxNesting bounds how deep statements and expressions may nest. Source
// comes from tenants of a shared daemon: without a bound a megabyte of "("
// overflows the goroutine stack here (and in every walk over the tree),
// which is not an error Go lets the daemon recover from.
const maxNesting = 256

// nest enters one level of nesting; the caller defers unnest.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		t := p.cur()
		return errAt(t.Line, t.Col, "statements or expressions nest more than %d deep", maxNesting)
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// Parse parses MiniCL source into a File.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(TokEOF) {
		fn, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		f.Funcs = append(f.Funcs, fn)
	}
	if len(f.Funcs) == 0 {
		return nil, errAt(1, 1, "source contains no functions")
	}
	return f, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) at(k TokKind) bool {
	return p.cur().Kind == k
}

func (p *parser) atPunct(text string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == text
}

func (p *parser) atKeyword(text string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == text
}

func (p *parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectPunct(text string) (Token, error) {
	if !p.atPunct(text) {
		t := p.cur()
		return t, errAt(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(text string) (Token, error) {
	if !p.atKeyword(text) {
		t := p.cur()
		return t, errAt(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	return p.advance(), nil
}

func (p *parser) expectIdent() (Token, error) {
	if !p.at(TokIdent) {
		t := p.cur()
		return t, errAt(t.Line, t.Col, "expected identifier, found %s", t)
	}
	return p.advance(), nil
}

// parseType parses a scalar type keyword.
func (p *parser) parseType() (Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return TypeVoid, errAt(t.Line, t.Col, "expected type, found %s", t)
	}
	switch t.Text {
	case "int":
		p.advance()
		return TypeInt, nil
	case "float":
		p.advance()
		return TypeFloat, nil
	case "void":
		p.advance()
		return TypeVoid, nil
	}
	return TypeVoid, errAt(t.Line, t.Col, "expected type, found %s", t)
}

// parseFunc parses `kernel void name(params) block` or
// `type name(params) block`.
func (p *parser) parseFunc() (*FuncDecl, error) {
	start := p.cur()
	fn := &FuncDecl{Line: start.Line, Col: start.Col}
	if p.atKeyword("kernel") {
		p.advance()
		fn.IsKernel = true
		if _, err := p.expectKeyword("void"); err != nil {
			return nil, err
		}
		fn.Return = TypeVoid
	} else {
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn.Return = ret
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	fn.Name = name.Text
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.atPunct(")") {
		if len(fn.Params) > 0 {
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		param, err := p.parseParam()
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, param)
	}
	p.advance() // ')'
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// parseParam parses `[const] [global|local] type [*] name`. The const
// qualifier may appear before or after the address space, as in OpenCL C.
func (p *parser) parseParam() (ParamDecl, error) {
	start := p.cur()
	d := ParamDecl{Line: start.Line, Col: start.Col, Space: SpaceNone}
	for {
		switch {
		case p.atKeyword("const"):
			p.advance()
			d.Const = true
			continue
		case p.atKeyword("global"):
			p.advance()
			d.Space = SpaceGlobal
			continue
		case p.atKeyword("local"):
			p.advance()
			d.Space = SpaceLocal
			continue
		}
		break
	}
	base, err := p.parseType()
	if err != nil {
		return d, err
	}
	if base == TypeVoid {
		return d, errAt(start.Line, start.Col, "parameter cannot have type void")
	}
	if p.atPunct("*") {
		p.advance()
		if d.Space == SpaceNone {
			d.Space = SpaceGlobal // bare pointers default to global
		}
		if base == TypeFloat {
			d.Type = TypeFloatPtr
		} else {
			d.Type = TypeIntPtr
		}
	} else {
		if d.Space != SpaceNone {
			return d, errAt(start.Line, start.Col, "address space qualifier requires a pointer type")
		}
		d.Type = base
	}
	name, err := p.expectIdent()
	if err != nil {
		return d, err
	}
	d.Name = name.Text
	return d, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.atPunct("}") {
		if p.at(TokEOF) {
			t := p.cur()
			return nil, errAt(t.Line, t.Col, "unexpected end of source inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // '}'
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	switch {
	case p.atPunct("{"):
		return p.parseBlock()

	case p.atKeyword("if"):
		return p.parseIf()

	case p.atKeyword("for"):
		return p.parseFor()

	case p.atKeyword("while"):
		p.advance()
		if _, err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil

	case p.atKeyword("return"):
		p.advance()
		rs := &ReturnStmt{Line: t.Line, Col: t.Col}
		if !p.atPunct(";") {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Value = v
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return rs, nil

	case p.atKeyword("break"):
		p.advance()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line, Col: t.Col}, nil

	case p.atKeyword("continue"):
		p.advance()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line, Col: t.Col}, nil

	case p.atKeyword("int") || p.atKeyword("float"):
		s, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return s, nil

	case p.at(TokIdent) && t.Text == "barrier" && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == "(":
		// barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE); the fence
		// expression is parsed and discarded: the VM's barrier is a full
		// work-group synchronisation point either way.
		p.advance()
		p.advance()
		if !p.atPunct(")") {
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &BarrierStmt{Line: t.Line, Col: t.Col}, nil

	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseDecl parses `type name [= expr]` (without the trailing semicolon).
func (p *parser) parseDecl() (Stmt, error) {
	t := p.cur()
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: name.Text, Type: typ, Line: t.Line, Col: t.Col}
	if p.atPunct("=") {
		p.advance()
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	return d, nil
}

// parseSimpleStmt parses an assignment, inc/dec or expression statement
// (without the trailing semicolon). Used both standalone and in for-clauses.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	t := p.cur()
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.atPunct("=") || p.atPunct("+=") || p.atPunct("-=") ||
		p.atPunct("*=") || p.atPunct("/=") || p.atPunct("%="):
		op := p.advance().Text
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !isLValue(x) {
			return nil, errAt(t.Line, t.Col, "left side of %s is not assignable", op)
		}
		return &AssignStmt{Target: x, Op: op, Value: v, Line: t.Line, Col: t.Col}, nil
	case p.atPunct("++") || p.atPunct("--"):
		op := p.advance().Text
		if !isLValue(x) {
			return nil, errAt(t.Line, t.Col, "operand of %s is not assignable", op)
		}
		return &IncDecStmt{Target: x, Op: op, Line: t.Line, Col: t.Col}, nil
	default:
		return &ExprStmt{X: x}, nil
	}
}

func isLValue(x Expr) bool {
	switch x.(type) {
	case *Ident, *IndexExpr:
		return true
	}
	return false
}

func (p *parser) parseIf() (Stmt, error) {
	if err := p.nest(); err != nil { // else-if chains recurse here
		return nil, err
	}
	defer p.unnest()
	p.advance() // 'if'
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.atKeyword("else") {
		p.advance()
		if p.atKeyword("if") {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.advance() // 'for'
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fs := &ForStmt{}
	if !p.atPunct(";") {
		var init Stmt
		var err error
		if p.atKeyword("int") || p.atKeyword("float") {
			init, err = p.parseDecl()
		} else {
			init, err = p.parseSimpleStmt()
		}
		if err != nil {
			return nil, err
		}
		fs.Init = init
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// Expression grammar, lowest to highest precedence:
//
//	ternary:   or ? expr : ternary
//	or:        and { "||" and }
//	and:       bitor { "&&" bitor }
//	bitor:     bitxor { "|" bitxor }
//	bitxor:    bitand { "^" bitand }
//	bitand:    equality { "&" equality }
//	equality:  relational { ("=="|"!=") relational }
//	relational: shift { ("<"|"<="|">"|">=") shift }
//	shift:     additive { ("<<"|">>") additive }
//	additive:  term { ("+"|"-") term }
//	term:      unary { ("*"|"/"|"%") unary }
//	unary:     ("-"|"!"|"~") unary | cast | postfix
//	cast:      "(" type ")" unary
//	postfix:   primary { "[" expr "]" }
//	primary:   literal | ident | call | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *parser) parseTernary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.atPunct("?") {
		return cond, nil
	}
	t := p.advance()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els, Line: t.Line, Col: t.Col}, nil
}

// binary operator precedence levels, lowest first.
var binaryLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binaryLevels) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		for _, op := range binaryLevels[level] {
			if p.atPunct(op) {
				matched = op
				break
			}
		}
		if matched == "" {
			return left, nil
		}
		t := p.advance()
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: matched, L: left, R: right, Line: t.Line, Col: t.Col}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	if p.atPunct("-") || p.atPunct("!") || p.atPunct("~") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Text, X: x, Line: t.Line, Col: t.Col}, nil
	}
	if p.atPunct("+") {
		p.advance()
		return p.parseUnary()
	}
	// Cast: '(' type ')' unary — lookahead for a type keyword after '('.
	if p.atPunct("(") && p.toks[p.pos+1].Kind == TokKeyword &&
		(p.toks[p.pos+1].Text == "int" || p.toks[p.pos+1].Text == "float") &&
		p.toks[p.pos+2].Kind == TokPunct && p.toks[p.pos+2].Text == ")" {
		p.advance()
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		p.advance() // ')'
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &CastExpr{To: typ, X: x, Line: t.Line, Col: t.Col}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("[") {
		t := p.advance()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		x = &IndexExpr{Buf: x, Index: idx, Line: t.Line, Col: t.Col}
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokIntLit:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "invalid integer literal %q", t.Text)
		}
		return &IntLit{Value: int32(v), Line: t.Line, Col: t.Col}, nil

	case t.Kind == TokFloatLit:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 32)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "invalid float literal %q", t.Text)
		}
		return &FloatLit{Value: float32(v), Line: t.Line, Col: t.Col}, nil

	case t.Kind == TokIdent:
		p.advance()
		if p.atPunct("(") {
			p.advance()
			call := &CallExpr{Name: t.Text, Line: t.Line, Col: t.Col}
			for !p.atPunct(")") {
				if len(call.Args) > 0 {
					if _, err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
			}
			p.advance() // ')'
			return call, nil
		}
		return &Ident{Name: t.Text, Line: t.Line, Col: t.Col}, nil

	case p.atPunct("("):
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, errAt(t.Line, t.Col, "expected expression, found %s", t)
}
