package intern

import "testing"

func TestTable(t *testing.T) {
	var tab Table
	if _, ok := tab.Lookup("a"); ok {
		t.Fatal("empty table found a name")
	}
	a, b := tab.Intern("a"), tab.Intern("b")
	if a != 0 || b != 1 || tab.Intern("a") != a || tab.Len() != 2 {
		t.Fatalf("ids a=%d b=%d len=%d", a, b, tab.Len())
	}
	if id, ok := tab.Lookup("b"); !ok || id != b || tab.Name(b) != "b" {
		t.Fatalf("Lookup(b) = %d %v, Name = %q", id, ok, tab.Name(b))
	}
	if _, ok := tab.Lookup("c"); ok || tab.Len() != 2 {
		t.Fatal("Lookup interned a name")
	}
	var none *Table
	if _, ok := none.Lookup("a"); ok {
		t.Fatal("nil table found a name")
	}
}

func TestNamesEntitySpaces(t *testing.T) {
	n := New()
	sports, music := n.Cats.Intern("sports"), n.Cats.Intern("music")
	if n.LookupEnts(music) != nil || n.LookupEnts(-1) != nil {
		t.Fatal("LookupEnts made a table")
	}
	e := n.Ents(music).Intern("x")
	if n.Ents(sports).Intern("y") != 0 || e != 0 {
		t.Fatal("entity ids are not per category")
	}
	if _, ok := n.LookupEnts(sports).Lookup("x"); ok {
		t.Fatal("an entity leaked into another category's space")
	}
	if got := n.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
}
