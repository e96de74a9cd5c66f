// Package kernel implements the MiniCL kernel language: a C-like subset of
// OpenCL C covering the constructs used by the paper's application studies
// (Mandelbrot, list-mode OSEM, bandwidth tests).
//
// MiniCL programs are plain source strings handed to
// Context.CreateProgramWithSource at run time, exactly as in OpenCL; the
// dOpenCL client driver ships them to remote daemons as text and each
// daemon's native runtime compiles them per device. The language supports:
//
//   - kernel functions:  kernel void f(global float* out, int n) { ... }
//   - helper functions:  float sq(float x) { return x * x; }
//   - scalar types int (32-bit) and float (32-bit IEEE)
//   - global and local buffer parameters (float* / int*), const qualifier
//   - if/else, for, while, break, continue, return
//   - the work-item builtins get_global_id, get_local_id, get_group_id,
//     get_global_size, get_local_size, get_num_groups
//   - work-group barrier(...) with the usual CLK_*_MEM_FENCE flags
//   - math builtins (sqrt, exp, log, sin, cos, pow, fabs, fmin, fmax, ...)
//   - explicit casts (int)x and (float)i
//
// The compiler (Compile) lowers every kernel to a register IR, which
// internal/vm executes; program builds share the result (Shared).
package kernel

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokPunct // operators and delimiters; the Text field holds the spelling
	TokKeyword
)

var keywords = map[string]bool{
	"kernel": true, "void": true, "int": true, "float": true,
	"global": true, "local": true, "const": true, "__kernel": true,
	"__global": true, "__local": true, "__const": true,
	"if": true, "else": true, "for": true, "while": true,
	"return": true, "break": true, "continue": true,
}

// Token is a lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of source"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// SyntaxError reports a lexical, parse or type error with its position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lexer turns source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByteAt(1) == '*':
			line, col := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errAt(line, col, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans the next token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peekByte()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentStart(l.peekByte()) || isDigit(l.peekByte())) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
			// Accept the double-underscore OpenCL spellings as aliases.
			switch text {
			case "__kernel":
				text = "kernel"
			case "__global":
				text = "global"
			case "__local":
				text = "local"
			case "__const":
				text = "const"
			}
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil

	case isDigit(c) || (c == '.' && isDigit(l.peekByteAt(1))):
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.peekByte()) {
			l.advance()
		}
		if l.peekByte() == '.' {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		if b := l.peekByte(); b == 'e' || b == 'E' {
			isFloat = true
			l.advance()
			if b := l.peekByte(); b == '+' || b == '-' {
				l.advance()
			}
			if !isDigit(l.peekByte()) {
				return Token{}, errAt(l.line, l.col, "malformed exponent in numeric literal")
			}
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		if b := l.peekByte(); b == 'f' || b == 'F' {
			isFloat = true
			l.advance()
			return Token{Kind: TokFloatLit, Text: l.src[start : l.pos-1], Line: line, Col: col}, nil
		}
		kind := TokIntLit
		if isFloat {
			kind = TokFloatLit
		}
		return Token{Kind: kind, Text: l.src[start:l.pos], Line: line, Col: col}, nil

	default:
		// Multi-character operators first, longest match wins.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
			"<<", ">>", "++", "--", "%=":
			l.advance()
			l.advance()
			return Token{Kind: TokPunct, Text: two, Line: line, Col: col}, nil
		}
		switch c {
		case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~',
			'(', ')', '{', '}', '[', ']', ',', ';', '?', ':':
			l.advance()
			return Token{Kind: TokPunct, Text: string(c), Line: line, Col: col}, nil
		}
		return Token{}, errAt(line, col, "unexpected character %q", string(c))
	}
}

// Lex tokenises an entire source string; exposed for tests and tooling.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var toks []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
