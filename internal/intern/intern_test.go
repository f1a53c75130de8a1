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

func TestSnapshot(t *testing.T) {
	d := NewDict()
	b := d.Intern("b")
	a := d.Intern("a")
	snap := d.Snapshot()

	// Later interning must not leak into the snapshot.
	d.Intern("c")
	if snap.Len() != 2 {
		t.Errorf("snapshot Len=%d want 2", snap.Len())
	}
	if snap.Value(a) != "a" || snap.Value(b) != "b" {
		t.Errorf("snapshot values: %q %q", snap.Value(a), snap.Value(b))
	}
	// Less follows value order, like the parent.
	if !snap.Less(a, b) || snap.Less(b, a) || snap.Less(a, a) {
		t.Error("snapshot Less should order by value")
	}
	if !snap.Less(Null, a) || snap.Less(a, Null) {
		t.Error("Null must sort before any value in a snapshot")
	}
	// The parent keeps growing independently.
	if d.Len() != 3 {
		t.Errorf("parent Len=%d want 3", d.Len())
	}
}

func TestLess(t *testing.T) {
	dict := NewDict()
	b := dict.Intern("b") // interned first, so symbol order disagrees with
	a := dict.Intern("a") // value order — Less must follow value order
	d := dict.Snapshot()
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
