// Package intern maps names to dense int32 ids, once per engine, so the
// write and query paths can index slices instead of hashing strings.
//
// Ids are assigned in first-seen order and are local to one engine: they
// are never persisted or sent, and two engines that saw the same names in
// different orders hold different ids for them. Every order-bearing
// structure (universe positions, snapshot name lists) is therefore keyed
// by name or by an order derived from names, never by id.
//
// Concurrency: interning writes, lookups read. An engine interns only
// where it already holds its write lock or runs a serial phase (observe,
// snapshot load, the index build's serial phase); readers under its read
// lock, and the build's parallel workers, only look names up.
package intern

// Table is one id space: a name ↔ id bijection, ids 0..Len()-1.
type Table struct {
	ids   map[string]int32
	names []string
}

// Intern returns name's id, assigning the next one if name is new. The
// table keeps its own reference to name; Name returns that copy.
func (t *Table) Intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns name's id without interning it. A nil table holds no
// names.
func (t *Table) Lookup(name string) (int32, bool) {
	if t == nil {
		return 0, false
	}
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the interned copy of the name with id.
func (t *Table) Name(id int32) string { return t.names[id] }

// Len returns how many names the table holds.
func (t *Table) Len() int { return len(t.names) }

// Names is an engine's interner: categories and producers in one id space
// each, and one entity id space per category (an entity's id is only
// meaningful together with its category's id).
type Names struct {
	Cats  Table
	Prods Table
	ents  []*Table // by category id
}

// New returns an empty interner.
func New() *Names { return &Names{} }

// Ents returns the entity table of category id cat, creating it if
// needed (a write: call it only where interning is allowed).
func (n *Names) Ents(cat int32) *Table {
	for int(cat) >= len(n.ents) {
		n.ents = append(n.ents, nil)
	}
	if n.ents[cat] == nil {
		n.ents[cat] = new(Table)
	}
	return n.ents[cat]
}

// LookupEnts returns the entity table of category id cat, or nil when no
// entity of that category was ever interned. It only reads.
func (n *Names) LookupEnts(cat int32) *Table {
	if cat < 0 || int(cat) >= len(n.ents) {
		return nil
	}
	return n.ents[cat]
}

// Len returns how many names the interner holds across all its tables.
func (n *Names) Len() int {
	total := n.Cats.Len() + n.Prods.Len()
	for _, t := range n.ents {
		if t != nil {
			total += t.Len()
		}
	}
	return total
}
