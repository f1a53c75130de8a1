package intern

import "testing"

func TestInternDense(t *testing.T) {
	d := NewDict()
	a := d.Intern("a")
	b := d.Intern("b")
	if a != 1 || b != 2 {
		t.Fatalf("symbols a=%d b=%d, want dense from 1", a, b)
	}
	if again := d.Intern("a"); again != a {
		t.Errorf("re-intern gave %d, want %d", again, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len=%d want 2", d.Len())
	}
}

func TestInternNeverAssignsNull(t *testing.T) {
	d := NewDict()
	if sym := d.Intern(""); sym == Null {
		t.Error("empty string interned as Null")
	}
}

func TestValueRoundTrip(t *testing.T) {
	d := NewDict()
	for _, s := range []string{"x", "", "⊥", "x"} {
		if got := d.Value(d.Intern(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestSymbol(t *testing.T) {
	d := NewDict()
	d.Intern("x")
	if sym, ok := d.Symbol("x"); !ok || sym != 1 {
		t.Errorf("Symbol(x)=%d,%v", sym, ok)
	}
	if _, ok := d.Symbol("y"); ok {
		t.Error("unknown value reported as known")
	}
}

func TestLess(t *testing.T) {
	d := NewDict()
	b := d.Intern("b") // interned first, so symbol order disagrees with
	a := d.Intern("a") // value order — Less must follow value order
	if !d.Less(a, b) || d.Less(b, a) {
		t.Error("Less should order by value, not symbol")
	}
	if !d.Less(Null, a) || d.Less(a, Null) {
		t.Error("Null must sort before any value")
	}
	if d.Less(a, a) || d.Less(Null, Null) {
		t.Error("Less must be irreflexive")
	}
}
