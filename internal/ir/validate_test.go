package ir

import "testing"

// TestValidateDefiniteAssignment pins which reads the validator accepts
// across nested control flow: a scalar is readable only where every path
// from the kernel entry has assigned it. An if defines what both arms
// define, a loop body may run zero times, and a for's Init runs once
// before the condition while its Post sees the body's definitions.
func TestValidateDefiniteAssignment(t *testing.T) {
	params := []Param{In("c"), In("n"), InOut("r")}
	cond := Ne(V("c"), C(0))
	readBeforeDef := func(name string) string {
		return "variable \"" + name + "\" may be read before assignment"
	}
	cases := []struct {
		name string
		body []Stmt
		want string // "" = valid
	}{
		{"both arms define", []Stmt{
			IfElse(cond, []Stmt{Set("t", C(1))}, []Stmt{Set("t", C(2))}),
			Set("r", V("t")),
		}, ""},
		{"one arm defines", []Stmt{
			IfThen(cond, Set("t", C(1))),
			Set("r", V("t")),
		}, readBeforeDef("t")},
		{"then-arm def is not visible in the else arm", []Stmt{
			IfElse(cond, []Stmt{Set("t", C(1))}, []Stmt{Set("r", V("t"))}),
		}, readBeforeDef("t")},
		{"nested if/else defines on every path", []Stmt{
			IfElse(cond,
				[]Stmt{IfElse(Gt(V("n"), C(0)), []Stmt{Set("t", C(1))}, []Stmt{Set("t", C(2))})},
				[]Stmt{Set("t", C(3))}),
			Set("r", V("t")),
		}, ""},
		{"nested if misses a path", []Stmt{
			IfElse(cond,
				[]Stmt{IfThen(Gt(V("n"), C(0)), Set("t", C(1)))},
				[]Stmt{Set("t", C(3))}),
			Set("r", V("t")),
		}, readBeforeDef("t")},
		{"inner arm reads the outer arm's def", []Stmt{
			IfThen(cond,
				Set("t", C(1)),
				IfElse(Gt(V("n"), C(0)), []Stmt{Set("r", V("t"))}, []Stmt{Set("r", Add(V("t"), C(1)))})),
		}, ""},
		{"def before the if survives it", []Stmt{
			Set("t", C(0)),
			IfElse(cond, []Stmt{Set("u", C(1))}, nil),
			Set("r", V("t")),
		}, ""},
		{"while body def is not visible after the loop", []Stmt{
			Loop(Lt(V("r"), V("n")), Set("t", C(1)), Set("r", Add(V("r"), V("t")))),
			Set("r", V("t")),
		}, readBeforeDef("t")},
		{"while condition reads a body def", []Stmt{
			Loop(Lt(V("t"), V("n")), Set("t", C(1))),
		}, readBeforeDef("t")},
		{"if inside while defines on one arm", []Stmt{
			Loop(Lt(V("r"), V("n")),
				IfThen(cond, Set("t", C(1))),
				Set("r", Add(V("r"), V("t")))),
		}, readBeforeDef("t")},
		{"if inside while defines on both arms", []Stmt{
			Loop(Lt(V("r"), V("n")),
				IfElse(cond, []Stmt{Set("t", C(1))}, []Stmt{Set("t", C(2))}),
				Set("r", Add(V("r"), V("t")))),
		}, ""},
		{"for init is visible after the loop", []Stmt{
			Count("i", C(0), V("n"), 1, Set("r", Add(V("r"), V("i")))),
			Set("r", V("i")),
		}, ""},
		{"for body def is not visible after the loop", []Stmt{
			Count("i", C(0), V("n"), 1, Set("t", V("i"))),
			Set("r", V("t")),
		}, readBeforeDef("t")},
		{"for post reads a body def", []Stmt{
			&For{
				Init: Set("i", C(0)),
				Cond: Lt(V("i"), V("n")),
				Post: Set("i", Add(V("i"), V("t"))),
				Body: []Stmt{Set("t", C(1))},
			},
		}, ""},
		{"nested loops restore each level", []Stmt{
			Count("i", C(0), V("n"), 1,
				Set("u", V("i")),
				Count("j", C(0), V("u"), 1, Set("t", V("j"))),
				Set("r", Add(V("r"), V("u")))),
			Set("r", V("t")),
		}, readBeforeDef("t")},
		{"inner loop's counter is not visible after the outer loop", []Stmt{
			Count("i", C(0), V("n"), 1,
				Count("j", C(0), V("i"), 1, Set("r", V("j")))),
			Set("r", V("j")),
		}, readBeforeDef("j")},
		{"store index reads an undefined local", []Stmt{
			IfThen(cond, Set("t", C(1))),
			SetElem("a", V("t"), C(0)),
		}, readBeforeDef("t")},
	}
	for _, c := range cases {
		k := NewKernel("k", append(params[:len(params):len(params)], Array("a")), c.body...)
		err := Validate(k)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case c.want != "" && err.Error() != c.want:
			t.Errorf("%s: %q, want %q", c.name, err, c.want)
		}
	}
}
