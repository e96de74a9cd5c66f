package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`kernel void f(global float* a) { a[0] = 1.5e2f + 0x; }`)
	if err == nil {
		// 0x is lexed as 0 then identifier x; both valid tokens.
		_ = toks
	}
	toks, err = Lex("int x = 42; // comment\n/* block\ncomment */ float y;")
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "int" || toks[0].Kind != TokKeyword {
		t.Errorf("first token = %+v", toks[0])
	}
	if toks[2].Text != "=" || toks[3].Text != "42" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"int x = @;", "unexpected character"},
		{"/* open", "unterminated block comment"},
		{"float f = 1e;", "malformed exponent"},
	}
	for _, tc := range cases {
		if _, err := Lex(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lex(%q) error = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("int\nx")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[1].Col != 1 {
		t.Errorf("positions: %+v %+v", toks[0], toks[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no functions"},
		{"missing-brace", "kernel void f() {", "unexpected end of source"},
		{"bad-param", "kernel void f(global int x) {}", "address space qualifier requires a pointer"},
		{"void-param", "kernel void f(void x) {}", "cannot have type void"},
		{"missing-semicolon", "kernel void f() { int x = 1 }", `expected ";"`},
		{"bad-assign-target", "kernel void f() { 3 = 4; }", "not assignable"},
		{"stray-else", "kernel void f() { else {} }", "expected expression"},
		{"deep-parens", "kernel void f(global int* o) { o[0] = " + strings.Repeat("(", 5000) + "1", "nest more than 256 deep"},
		{"deep-negation", "kernel void f(global int* o) { o[0] = " + strings.Repeat("!", 5000) + "1; }", "nest more than 256 deep"},
		{"deep-ternary", "kernel void f(global int* o) { o[0] = " + strings.Repeat("1 ? 2 : ", 5000) + "1; }", "nest more than 256 deep"},
		{"deep-blocks", "kernel void f() " + strings.Repeat("{", 5000), "nest more than 256 deep"},
		{"deep-else-if", "kernel void f() { " + strings.Repeat("if (1) {} else ", 5000) + "{} }", "nest more than 256 deep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCompileTypeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined-var", "kernel void f(global int* o) { o[0] = y; }", "undefined variable y"},
		{"undefined-func", "kernel void f(global int* o) { o[0] = g(); }", "undefined function g"},
		{"redeclare", "kernel void f() { int x; int x; }", "redeclared"},
		{"float-condition", "kernel void f(global float* o) { if (o[0]) {} }", "condition must be int"},
		{"mod-float", "kernel void f(global float* o) { o[0] = o[0] % 2.0; }", "requires int operands"},
		{"break-outside", "kernel void f() { break; }", "break outside loop"},
		{"continue-outside", "kernel void f() { continue; }", "continue outside loop"},
		{"kernel-return-value", "kernel void f() { return 3; }", "kernel cannot return a value"},
		{"void-return-value", "void g() { return 1; } kernel void f() {}", "void function cannot return"},
		{"missing-return-value", "int g() { return; } kernel void f() {}", "must return int"},
		{"call-kernel", "kernel void g() {} kernel void f() { g(); }", "cannot call kernel"},
		{"redefine", "int g() { return 1; } int g() { return 2; } kernel void f() {}", "redefined"},
		{"shadow-builtin", "int sqrt(int x) { return x; } kernel void f() {}", "shadows a builtin"},
		{"arity", "kernel void f(global int* o) { o[0] = min(1); }", "expects 2 arguments"},
		{"buffer-no-index", "kernel void f(global int* o, global int* p) { o[0] = p + 1; }", "used without index"},
		{"assign-buffer", "kernel void f(global int* o) { o = o; }", "cannot assign to buffer"},
		{"void-value", "void g() {} kernel void f(global int* o) { o[0] = g() + 1; }", "not defined for void"},
		{"ternary-void", "void g() {} kernel void f(global int* o) { o[0] = o[0] > 0 ? g() : 1; }", "mismatched types"},
		{"buffer-arg", "int g(global int* p) { return p[0]; } kernel void f(global int* o, global float* q) { o[0] = g(q); }", "must be a int* buffer"},
		// A helper no kernel calls is still checked.
		{"uncalled-helper", "int g(int x) { return y; } kernel void f() {}", "undefined variable y"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCompileProducesKernelMetadata(t *testing.T) {
	prog, err := Compile(`
float helper(float x) { return x + 1.0; }
kernel void a(global float* out, const global float* in, local float* s, int n, float scale) {
	out[0] = helper(in[0]) * scale;
}
kernel void b(global int* out) { out[0] = 1; }
`)
	if err != nil {
		t.Fatal(err)
	}
	names := prog.KernelNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("kernels = %v", names)
	}
	a, ok := prog.Kernel("a")
	if !ok {
		t.Fatal("kernel a missing")
	}
	wantKinds := []ArgKind{ArgGlobalBuf, ArgGlobalBuf, ArgLocalBuf, ArgScalarInt, ArgScalarFloat}
	for i, want := range wantKinds {
		if a.Args[i].Kind != want {
			t.Errorf("arg %d kind = %v, want %v", i, a.Args[i].Kind, want)
		}
	}
	if a.Args[0].ReadOnly || !a.Args[1].ReadOnly {
		t.Errorf("readonly flags: %+v", a.Args)
	}
	if _, ok := prog.Kernel("helper"); ok {
		t.Error("helper must not be listed as kernel")
	}
	if len(prog.Funcs) != 2 {
		t.Errorf("Funcs lists %d functions, want the 2 kernels", len(prog.Funcs))
	}
	if dis := prog.Unoptimized(a).Disassemble(); !strings.Contains(dis, "workgroup a") || !strings.Contains(dis, "end") {
		t.Errorf("disassembly incomplete:\n%s", dis)
	}
}

// TestCompileRefusals pins what Compile declines to inline, each as a
// positioned build error: OpenCL C has no recursion, and a kernel that
// nests helpers too deep or inlines to too much code is not compiled.
func TestCompileRefusals(t *testing.T) {
	// chain(n) is helpers f1..fn, each calling the next one `calls` times.
	chain := func(n, calls int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "int f%d(int x) { return x + 1; }\n", n)
		for i := n - 1; i >= 1; i-- {
			fmt.Fprintf(&b, "int f%d(int x) { return ", i)
			for c := 0; c < calls; c++ {
				if c > 0 {
					b.WriteString(" + ")
				}
				fmt.Fprintf(&b, "f%d(x)", i+1)
			}
			b.WriteString("; }\n")
		}
		b.WriteString("kernel void k(global int* o) { o[0] = f1(1); }\n")
		return b.String()
	}
	cases := []struct {
		name, src, want string
	}{
		{
			"direct-recursion",
			`int down(int x) {
	if (x > 0) { return down(x - 1); }
	return 0;
}
kernel void k(global int* o) {
	o[0] = down(get_global_id(0));
}`,
			"2:22: recursive call to down",
		},
		{
			"mutual-recursion",
			`int odd(int x) { if (x == 0) { return 0; } return even(x - 1); }
int even(int x) {
	if (x == 0) { return 1; }
	return odd(x - 1);
}
kernel void k(global int* o) { o[0] = even(5); }`,
			"1:51: recursive call to even",
		},
		{
			"recursion-in-uncalled-helper",
			"int loop(int x) { return loop(x); }\nkernel void k() {}",
			"1:26: recursive call to loop",
		},
		{"inline-depth", chain(33, 1), "2:25: call to f33 nests helpers more than 32 deep"},
		{"size-cap", chain(17, 2), "too large to compile"},
		{"size-cap-empty-helpers", "void f3() {}\n" +
			"void f2() { " + strings.Repeat("f3(); ", 100) + "}\n" +
			"void f1() { " + strings.Repeat("f2(); ", 100) + "}\n" +
			"kernel void k() { " + strings.Repeat("f1(); ", 100) + "}\n", "4:1: k is too large to compile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error = %v, want %q", err, tc.want)
			}
			var se *SyntaxError
			if !errors.As(err, &se) || se.Line == 0 {
				t.Errorf("refusal carries no position: %#v", err)
			}
		})
	}
	if _, err := Compile(chain(32, 1)); err != nil {
		t.Errorf("32 nested helpers must compile: %v", err)
	}
}

func TestOpenCLSpellings(t *testing.T) {
	// __kernel/__global spellings and barrier fence flags must be accepted.
	_, err := Compile(`
__kernel void k(__global float* out, __local float* s) {
	barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE);
	out[get_global_id(0)] = 0.0;
}
`)
	if err != nil {
		t.Fatalf("OpenCL spellings rejected: %v", err)
	}
}

func TestConstPoolDeduplication(t *testing.T) {
	prog, err := Compile(`
kernel void k(global int* o) {
	o[0] = 7;
	o[1] = 7;
	o[2] = 3 + 4;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel("k")
	// The third 7 is one the constant folder interns into the same pool.
	for _, plan := range []*WGFunc{prog.Unoptimized(fn), prog.WorkGroup(fn)} {
		count := 0
		for _, c := range plan.Consts {
			if c == 7 {
				count++
			}
		}
		if count != 1 {
			t.Errorf("constant 7 appears %d times in pool %v", count, plan.Consts)
		}
	}
}

// TestParserNeverPanics property-tests the front end against arbitrary
// input: it must return a value or an error, never crash.
func TestParserNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, err := Compile(src)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Also fuzz with token-ish fragments that are more likely to reach
	// deep parser states than random unicode.
	fragments := []string{
		"kernel", "void", "f", "(", ")", "{", "}", "int", "float", "*",
		"global", "local", "const", "if", "else", "for", "while", "return",
		"x", "=", "+", "-", ";", "[", "]", "1", "2.5", ",", "<", ">>", "&&",
		"barrier", "?", ":",
	}
	g := func(picks []uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(fragments[int(p)%len(fragments)])
			b.WriteByte(' ')
		}
		_, err := Compile(b.String())
		_ = err
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
