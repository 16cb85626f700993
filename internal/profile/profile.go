// Package profile implements the CPPse user profile of Zhou et al. (ICDE
// 2019, §IV-B): a long-term interest list L and a fixed-size short-term
// interest window W, both sequences of ⟨category, producer⟩ pairs with
// entity statistics, plus the Maximum-Likelihood estimators with Dirichlet
// smoothing used by the item–user matching (§IV-C).
//
// The short-term window keeps the user's latest |W| interactions; when it
// fills up it is flushed into the long-term list. The long-term list backs
// the MLE estimates p̂(up|uc) and p̂(e|uc), smoothed against collection-wide
// background distributions so unseen producers/entities never receive a
// zero probability (the paper's serendipity requirement).
//
// Names are interned: every profile of a Store shares the store's
// intern.Names, and a profile keeps its counts as id-sorted slices
// (IDCount) rather than name-keyed maps, so the index refresh reads them
// by integer id. An observed event is interned once, on arrival, and the
// profile keeps the interner's copy of each of its strings. Every
// name-keyed method answers through the interner; ids never leave the
// engine (Snapshot carries names).
package profile

import (
	"slices"
	"sort"
	"strings"

	"ssrec/internal/intern"
	"ssrec/internal/model"
)

// Event is one browse record kept in a profile: the ⟨category, producer⟩
// pair plus the item's entities — the CPPse sequence element.
type Event struct {
	Category  string
	Producer  string
	Entities  []string
	Timestamp int64
}

// EventFromItem converts an interacted item into a profile event.
func EventFromItem(v model.Item, ts int64) Event {
	return Event{Category: v.Category, Producer: v.Producer, Entities: v.Entities, Timestamp: ts}
}

// IDCount is the long-term count of one interned name.
type IDCount struct {
	ID int32
	N  int32
}

// CategoryStats is a profile's record of one category it is active in,
// long-term or in the window.
type CategoryStats struct {
	ID       int32     // category id in the profile's interner
	Count    int       // long-term browse count; 0 while only the window holds the category
	EntTotal int       // Σ Ents counts
	Ents     []IDCount // long-term entity counts by ascending id (the category's own id space)
}

// eventIDs is a window event as interned ids; its entity ids are
// Profile.winEnts[lo:hi].
type eventIDs struct {
	cat, prod int32
	lo, hi    int32
}

// Profile is one consumer's CPPse profile.
type Profile struct {
	UserID string

	names *intern.Names

	// Long-term statistics (the list L, aggregated):
	cats       []CategoryStats // every category of L ∪ W, by ascending name
	prods      []IDCount       // per-producer browse counts, by ascending id
	prodTotal  int             // Σ prods counts
	longEvents []Event         // the list L itself, in temporal order

	// Short-term window W (most recent events, capacity windowSize) and
	// its events as ids.
	window     []Event
	winIDs     []eventIDs
	winEnts    []int32
	windowSize int
}

// New returns an empty profile with the given short-term window size
// (minimum 1) and an interner of its own.
func New(userID string, windowSize int) *Profile {
	return newIn(intern.New(), userID, windowSize)
}

func newIn(names *intern.Names, userID string, windowSize int) *Profile {
	if windowSize < 1 {
		windowSize = 1
	}
	return &Profile{UserID: userID, names: names, windowSize: windowSize}
}

// WindowSize returns the capacity of the short-term window.
func (p *Profile) WindowSize() int { return p.windowSize }

// Observe appends one event to the short-term window, flushing the window
// into the long-term list first if it is full. This is the paper's
// maintenance rule: W is flushed to L when full. The return reports
// whether the window rolled (a flush happened): a roll moves every
// buffered event into long-term state, changing Pl, WindowCategories and
// the count statistics for categories far beyond this event's — callers
// maintaining per-category dirty masks must treat a roll as "all
// categories dirty".
func (p *Profile) Observe(e Event) bool {
	rolled := false
	if len(p.window) >= p.windowSize {
		p.Flush()
		rolled = true
	}
	p.push(e)
	return rolled
}

// push interns e and appends it to the window.
func (p *Profile) push(e Event) {
	e, ids := p.intern(e)
	p.window = append(p.window, e)
	p.winIDs = append(p.winIDs, ids)
	p.activate(ids.cat)
}

// intern interns e's names, appending its entity ids to winEnts, and
// returns e with the interner's copies of its strings.
func (p *Profile) intern(e Event) (Event, eventIDs) {
	n := p.names
	ids := eventIDs{cat: n.Cats.Intern(e.Category), prod: n.Prods.Intern(e.Producer)}
	e.Category, e.Producer = n.Cats.Name(ids.cat), n.Prods.Name(ids.prod)
	ids.lo = int32(len(p.winEnts))
	if len(e.Entities) > 0 {
		tab := n.Ents(ids.cat)
		ents := make([]string, len(e.Entities))
		for i, name := range e.Entities {
			id := tab.Intern(name)
			ents[i] = tab.Name(id)
			p.winEnts = append(p.winEnts, id)
		}
		e.Entities = ents
	}
	ids.hi = int32(len(p.winEnts))
	return e, ids
}

// ObserveLongTerm bypasses the window and adds the event directly to the
// long-term list — used when bootstrapping profiles from historical
// training data.
func (p *Profile) ObserveLongTerm(e Event) {
	e, ids := p.intern(e)
	p.addLongTerm(e, ids)
	p.winEnts = p.winEnts[:ids.lo]
}

// Flush moves every window event into the long-term list and empties the
// window.
func (p *Profile) Flush() {
	for i, e := range p.window {
		p.addLongTerm(e, p.winIDs[i])
	}
	p.window = p.window[:0]
	p.winIDs = p.winIDs[:0]
	p.winEnts = p.winEnts[:0]
}

func (p *Profile) addLongTerm(e Event, ids eventIDs) {
	cs := p.activate(ids.cat)
	cs.Count++
	for _, id := range p.winEnts[ids.lo:ids.hi] {
		cs.Ents = addCount(cs.Ents, id)
		cs.EntTotal++
	}
	p.prods = addCount(p.prods, ids.prod)
	p.prodTotal++
	p.longEvents = append(p.longEvents, e)
}

// addCount adds one to id's count in the id-sorted list.
func addCount(list []IDCount, id int32) []IDCount {
	i, found := slices.BinarySearchFunc(list, id, byID)
	if found {
		list[i].N++
		return list
	}
	return slices.Insert(list, i, IDCount{ID: id, N: 1})
}

func byID(c IDCount, id int32) int { return int(c.ID - id) }

// countOf returns id's count in the id-sorted list.
func countOf(list []IDCount, id int32) int {
	if i, found := slices.BinarySearchFunc(list, id, byID); found {
		return int(list[i].N)
	}
	return 0
}

// activate returns the record of category id cat, inserting it in name
// order if the profile was not yet active there. The pointer is valid
// until the next activate.
func (p *Profile) activate(cat int32) *CategoryStats {
	if cs := p.Category(cat); cs != nil {
		return cs
	}
	name := p.names.Cats.Name(cat)
	i := sort.Search(len(p.cats), func(i int) bool {
		return strings.Compare(p.names.Cats.Name(p.cats[i].ID), name) > 0
	})
	p.cats = slices.Insert(p.cats, i, CategoryStats{ID: cat})
	return &p.cats[i]
}

// Category returns the record of category id cat, or nil when the profile
// is not active there. The record is live: callers must not modify it.
func (p *Profile) Category(cat int32) *CategoryStats {
	for i := range p.cats {
		if p.cats[i].ID == cat {
			return &p.cats[i]
		}
	}
	return nil
}

// category returns the record of the category named c, or nil.
func (p *Profile) category(c string) *CategoryStats {
	id, ok := p.names.Cats.Lookup(c)
	if !ok {
		return nil
	}
	return p.Category(id)
}

// ActiveCategories returns the record of every category the profile is
// active in — long-term or windowed — by ascending category name. The
// slice is live: callers must not modify it.
func (p *Profile) ActiveCategories() []CategoryStats { return p.cats }

// ProducerCounts returns the long-term producer counts by ascending
// producer id. The slice is live: callers must not modify it.
func (p *Profile) ProducerCounts() []IDCount { return p.prods }

// Events returns the live long-term list L and short-term window W, both
// oldest first, without copying; callers must not modify them.
func (p *Profile) Events() (long, window []Event) {
	return p.longEvents, p.window
}

// Window returns a copy of the current short-term window contents, oldest
// first.
func (p *Profile) Window() []Event {
	return append([]Event(nil), p.window...)
}

// WindowCategories returns the category sequence of the short-term window.
func (p *Profile) WindowCategories() []string {
	out := make([]string, len(p.window))
	for i, e := range p.window {
		out[i] = e.Category
	}
	return out
}

// WindowCategoryCount returns how many window events carry category c —
// the short-term interest count without materialising the category
// sequence.
func (p *Profile) WindowCategoryCount(c string) int {
	n := 0
	for _, e := range p.window {
		if e.Category == c {
			n++
		}
	}
	return n
}

// LongTermLen returns the number of long-term events; WindowLen the number
// currently buffered in the window.
func (p *Profile) LongTermLen() int { return len(p.longEvents) }
func (p *Profile) WindowLen() int   { return len(p.window) }

// TotalLen is long-term plus window.
func (p *Profile) TotalLen() int { return len(p.longEvents) + len(p.window) }

// CategorySequence returns the long-term category history in temporal
// order (the observation sequence for HMM training).
func (p *Profile) CategorySequence() []string {
	out := make([]string, len(p.longEvents))
	for i, e := range p.longEvents {
		out[i] = e.Category
	}
	return out
}

// ProducerSequence returns the long-term producer history aligned with
// CategorySequence.
func (p *Profile) ProducerSequence() []string {
	out := make([]string, len(p.longEvents))
	for i, e := range p.longEvents {
		out[i] = e.Producer
	}
	return out
}

// CategoryCount returns the long-term browse count of a category.
func (p *Profile) CategoryCount(c string) int {
	if cs := p.category(c); cs != nil {
		return cs.Count
	}
	return 0
}

// ProducerCount returns the long-term browse count of a producer.
func (p *Profile) ProducerCount(up string) int {
	id, ok := p.names.Prods.Lookup(up)
	if !ok {
		return 0
	}
	return countOf(p.prods, id)
}

// EntityCount returns the long-term count of entity e under category c.
func (p *Profile) EntityCount(c, e string) int {
	cs := p.category(c)
	if cs == nil {
		return 0
	}
	id, ok := p.names.LookupEnts(cs.ID).Lookup(e)
	if !ok {
		return 0
	}
	return countOf(cs.Ents, id)
}

// Categories returns the distinct long-term categories, by name.
func (p *Profile) Categories() []string {
	out := make([]string, 0, len(p.cats))
	for _, cs := range p.cats {
		if cs.Count > 0 {
			out = append(out, p.names.Cats.Name(cs.ID))
		}
	}
	return out
}

// Producers returns the distinct long-term producers.
func (p *Profile) Producers() []string {
	out := make([]string, len(p.prods))
	for i, pc := range p.prods {
		out[i] = p.names.Prods.Name(pc.ID)
	}
	return out
}

// EntitiesIn returns the distinct entities recorded under category c.
func (p *Profile) EntitiesIn(c string) []string {
	cs := p.category(c)
	if cs == nil {
		return nil
	}
	tab := p.names.LookupEnts(cs.ID)
	out := make([]string, len(cs.Ents))
	for i, ec := range cs.Ents {
		out[i] = tab.Name(ec.ID)
	}
	return out
}

// DistinctProducerCount and DistinctEntityCount report |Up| and |E| for the
// leaf-entry tuple of the signature tree.
func (p *Profile) DistinctProducerCount() int { return len(p.prods) }
func (p *Profile) DistinctEntityCount(c string) int {
	if cs := p.category(c); cs != nil {
		return len(cs.Ents)
	}
	return 0
}

// ProducerTotal returns the total long-term producer-browse count (the
// denominator of the producer MLE).
func (p *Profile) ProducerTotal() int { return p.prodTotal }

// EntityTotal returns the total long-term entity count under category c
// (the denominator of the entity MLE).
func (p *Profile) EntityTotal(c string) int {
	if cs := p.category(c); cs != nil {
		return cs.EntTotal
	}
	return 0
}

// CategoryVector returns the normalised long-term category distribution
// over the supplied category universe — the feature vector used by
// one-pass clustering to form user blocks.
func (p *Profile) CategoryVector(universe []string) []float64 {
	v := make([]float64, len(universe))
	total := len(p.longEvents)
	if total == 0 {
		return v
	}
	for i, c := range universe {
		v[i] = float64(p.CategoryCount(c)) / float64(total)
	}
	return v
}

// Background holds the collection-wide reference distributions used by
// Dirichlet smoothing: p(up|collection) and p(e|collection, c). Build one
// Background over the training corpus and share it across profiles.
type Background struct {
	prodProb map[string]float64            // producer -> collection probability
	entProb  map[string]map[string]float64 // category -> entity -> probability
	// Mu is the Dirichlet pseudo-count; larger values pull estimates
	// harder toward the background. Default 10.
	Mu float64
}

// NewBackground computes background distributions from a corpus of items.
func NewBackground(items []model.Item, mu float64) *Background {
	if mu <= 0 {
		mu = 10
	}
	b := &Background{
		prodProb: make(map[string]float64),
		entProb:  make(map[string]map[string]float64),
		Mu:       mu,
	}
	prodCount := make(map[string]int)
	entCount := make(map[string]map[string]int)
	entTotal := make(map[string]int)
	var prodTotal int
	for _, v := range items {
		prodCount[v.Producer]++
		prodTotal++
		em := entCount[v.Category]
		if em == nil {
			em = make(map[string]int)
			entCount[v.Category] = em
		}
		for _, e := range v.Entities {
			em[e]++
			entTotal[v.Category]++
		}
	}
	for u, c := range prodCount {
		b.prodProb[u] = float64(c) / float64(prodTotal)
	}
	for cat, em := range entCount {
		pm := make(map[string]float64, len(em))
		for e, c := range em {
			pm[e] = float64(c) / float64(entTotal[cat])
		}
		b.entProb[cat] = pm
	}
	return b
}

// floor keeps smoothed estimates strictly positive even for
// producers/entities absent from both profile and background.
const floor = 1e-9

// ProducerProb returns the background probability of a producer.
func (b *Background) ProducerProb(up string) float64 {
	if p := b.prodProb[up]; p > 0 {
		return p
	}
	return floor
}

// EntityProb returns the background probability of entity e in category c.
func (b *Background) EntityProb(c, e string) float64 {
	if p := b.entProb[c][e]; p > 0 {
		return p
	}
	return floor
}

// ProducerMLE returns the Dirichlet-smoothed estimate p̂(up|uc):
//
//	(count(up) + μ·p(up|collection)) / (total + μ)
//
// It is strictly positive for every producer, which is what prevents the
// zero-probability collapse the paper calls out.
func (p *Profile) ProducerMLE(up string, bg *Background) float64 {
	return (float64(p.ProducerCount(up)) + bg.Mu*bg.ProducerProb(up)) / (float64(p.prodTotal) + bg.Mu)
}

// EntityMLE returns the Dirichlet-smoothed estimate p̂(e|uc) within
// category c.
func (p *Profile) EntityMLE(c, e string, bg *Background) float64 {
	return (float64(p.EntityCount(c, e)) + bg.Mu*bg.EntityProb(c, e)) / (float64(p.EntityTotal(c)) + bg.Mu)
}

// CategoryMLE returns the plain long-term MLE of browsing category c with
// add-one smoothing over nCats categories — the fallback category
// probability when no trained BiHMM is available.
func (p *Profile) CategoryMLE(c string, nCats int) float64 {
	return (float64(p.CategoryCount(c)) + 1) / (float64(len(p.longEvents)) + float64(nCats))
}

// Snapshot is the exported wire form of a Profile (gob-friendly).
type Snapshot struct {
	UserID     string
	WindowSize int
	LongTerm   []Event // replayed through ObserveLongTerm on restore
	Window     []Event
}

// Snapshot exports the profile state. Long-term events are reconstructed
// from the recorded category/producer sequences; per-event entities are
// carried alongside so counts restore exactly.
func (p *Profile) Snapshot() Snapshot {
	s := Snapshot{UserID: p.UserID, WindowSize: p.windowSize}
	s.LongTerm = append(s.LongTerm, p.longEvents...)
	s.Window = append(s.Window, p.window...)
	return s
}

// BackgroundSnapshot is the exported wire form of a Background.
type BackgroundSnapshot struct {
	ProdProb map[string]float64
	EntProb  map[string]map[string]float64
	Mu       float64
}

// Snapshot exports the background distributions.
func (b *Background) Snapshot() BackgroundSnapshot {
	s := BackgroundSnapshot{
		ProdProb: make(map[string]float64, len(b.prodProb)),
		EntProb:  make(map[string]map[string]float64, len(b.entProb)),
		Mu:       b.Mu,
	}
	for k, v := range b.prodProb {
		s.ProdProb[k] = v
	}
	for c, m := range b.entProb {
		cm := make(map[string]float64, len(m))
		for e, v := range m {
			cm[e] = v
		}
		s.EntProb[c] = cm
	}
	return s
}

// BackgroundFromSnapshot rebuilds a Background.
func BackgroundFromSnapshot(s BackgroundSnapshot) *Background {
	b := &Background{
		prodProb: make(map[string]float64, len(s.ProdProb)),
		entProb:  make(map[string]map[string]float64, len(s.EntProb)),
		Mu:       s.Mu,
	}
	for k, v := range s.ProdProb {
		b.prodProb[k] = v
	}
	for c, m := range s.EntProb {
		cm := make(map[string]float64, len(m))
		for e, v := range m {
			cm[e] = v
		}
		b.entProb[c] = cm
	}
	return b
}

// Store is a concurrency-free collection of profiles keyed by user ID,
// sharing one interner.
type Store struct {
	profiles   map[string]*Profile
	names      *intern.Names
	windowSize int
}

// NewStore returns an empty store creating profiles with windowSize.
func NewStore(windowSize int) *Store {
	return &Store{profiles: make(map[string]*Profile), names: intern.New(), windowSize: windowSize}
}

// Names returns the interner every profile of the store shares.
func (s *Store) Names() *intern.Names { return s.names }

// Get returns the profile for userID, creating it on first use.
func (s *Store) Get(userID string) *Profile {
	p := s.profiles[userID]
	if p == nil {
		p = newIn(s.names, userID, s.windowSize)
		s.profiles[userID] = p
	}
	return p
}

// Restore rebuilds a profile from its wire form in the store's interner
// and stores it under its UserID, replacing any profile held for that
// user.
func (s *Store) Restore(snap Snapshot) *Profile {
	p := newIn(s.names, snap.UserID, snap.WindowSize)
	p.longEvents = make([]Event, 0, len(snap.LongTerm))
	for _, e := range snap.LongTerm {
		p.ObserveLongTerm(e)
	}
	for _, e := range snap.Window {
		p.push(e)
	}
	s.profiles[p.UserID] = p
	return p
}

// Lookup returns the profile and whether it exists, without creating it.
func (s *Store) Lookup(userID string) (*Profile, bool) {
	p, ok := s.profiles[userID]
	return p, ok
}

// Remove deletes the profile for userID if present. Used by tests and by
// engine-level user removal; removing an unknown user is a no-op.
func (s *Store) Remove(userID string) {
	delete(s.profiles, userID)
}

// Len returns the number of profiles.
func (s *Store) Len() int { return len(s.profiles) }

// Each calls fn for every profile (unspecified order).
func (s *Store) Each(fn func(*Profile)) {
	for _, p := range s.profiles {
		fn(p)
	}
}

// UserIDs returns all user IDs (unspecified order).
func (s *Store) UserIDs() []string {
	out := make([]string, 0, len(s.profiles))
	for id := range s.profiles {
		out = append(out, id)
	}
	return out
}
