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
package profile

import (
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

// Profile is one consumer's CPPse profile.
type Profile struct {
	UserID string

	// Long-term statistics (the list L, aggregated):
	catCount   map[string]int            // per-category browse counts
	prodCount  map[string]int            // per-producer browse counts
	entCount   map[string]map[string]int // category -> entity -> count
	prodTotal  int                       // Σ prodCount
	entTotal   map[string]int            // per-category Σ entity counts
	history    []string                  // category sequence in temporal order (for HMM training)
	producers  []string                  // producer aligned with history
	longEvents []Event                   // the list L itself, in temporal order
	total      int                       // total long-term events

	// Short-term window W (most recent events, capacity windowSize).
	window     []Event
	windowSize int
}

// New returns an empty profile with the given short-term window size
// (minimum 1).
func New(userID string, windowSize int) *Profile {
	if windowSize < 1 {
		windowSize = 1
	}
	return &Profile{
		UserID:     userID,
		catCount:   make(map[string]int),
		prodCount:  make(map[string]int),
		entCount:   make(map[string]map[string]int),
		entTotal:   make(map[string]int),
		windowSize: windowSize,
	}
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
	p.window = append(p.window, e)
	return rolled
}

// ObserveLongTerm bypasses the window and adds the event directly to the
// long-term list — used when bootstrapping profiles from historical
// training data.
func (p *Profile) ObserveLongTerm(e Event) {
	p.addLongTerm(e)
}

// Flush moves every window event into the long-term list and empties the
// window.
func (p *Profile) Flush() {
	for _, e := range p.window {
		p.addLongTerm(e)
	}
	p.window = p.window[:0]
}

func (p *Profile) addLongTerm(e Event) {
	p.catCount[e.Category]++
	p.prodCount[e.Producer]++
	p.prodTotal++
	em := p.entCount[e.Category]
	if em == nil {
		em = make(map[string]int)
		p.entCount[e.Category] = em
	}
	for _, ent := range e.Entities {
		em[ent]++
		p.entTotal[e.Category]++
	}
	p.history = append(p.history, e.Category)
	p.producers = append(p.producers, e.Producer)
	p.longEvents = append(p.longEvents, e)
	p.total++
}

// Events returns the live long-term list L and short-term window W, both
// oldest first, without copying; callers must not modify them.
func (p *Profile) Events() (long, window []Event) {
	return p.longEvents, p.window
}

// LongTermEvents returns the long-term interest list L in temporal order.
func (p *Profile) LongTermEvents() []Event {
	return append([]Event(nil), p.longEvents...)
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

// AppendWindowCategories appends the window's category sequence to dst and
// returns it — the allocation-free form of WindowCategories for callers
// holding a reusable scratch buffer.
func (p *Profile) AppendWindowCategories(dst []string) []string {
	for _, e := range p.window {
		dst = append(dst, e.Category)
	}
	return dst
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
func (p *Profile) LongTermLen() int { return p.total }
func (p *Profile) WindowLen() int   { return len(p.window) }

// TotalLen is long-term plus window.
func (p *Profile) TotalLen() int { return p.total + len(p.window) }

// CategorySequence returns the long-term category history in temporal
// order (the observation sequence for HMM training).
func (p *Profile) CategorySequence() []string { return append([]string(nil), p.history...) }

// ProducerSequence returns the long-term producer history aligned with
// CategorySequence.
func (p *Profile) ProducerSequence() []string { return append([]string(nil), p.producers...) }

// CategoryCount returns the long-term browse count of a category.
func (p *Profile) CategoryCount(c string) int { return p.catCount[c] }

// ProducerCount returns the long-term browse count of a producer.
func (p *Profile) ProducerCount(up string) int { return p.prodCount[up] }

// EntityCount returns the long-term count of entity e under category c.
func (p *Profile) EntityCount(c, e string) int { return p.entCount[c][e] }

// Categories returns the distinct long-term categories.
func (p *Profile) Categories() []string {
	out := make([]string, 0, len(p.catCount))
	for c := range p.catCount {
		out = append(out, c)
	}
	return out
}

// Producers returns the distinct long-term producers.
func (p *Profile) Producers() []string {
	out := make([]string, 0, len(p.prodCount))
	for u := range p.prodCount {
		out = append(out, u)
	}
	return out
}

// EntitiesIn returns the distinct entities recorded under category c.
func (p *Profile) EntitiesIn(c string) []string {
	em := p.entCount[c]
	out := make([]string, 0, len(em))
	for e := range em {
		out = append(out, e)
	}
	return out
}

// AppendCategories, AppendProducers and AppendEntitiesIn are the
// allocation-free forms of Categories/Producers/EntitiesIn: they append
// into a caller-owned scratch slice (map order — sort before relying on
// order) and return it.
func (p *Profile) AppendCategories(dst []string) []string {
	for c := range p.catCount {
		dst = append(dst, c)
	}
	return dst
}

func (p *Profile) AppendProducers(dst []string) []string {
	for u := range p.prodCount {
		dst = append(dst, u)
	}
	return dst
}

func (p *Profile) AppendEntitiesIn(c string, dst []string) []string {
	for e := range p.entCount[c] {
		dst = append(dst, e)
	}
	return dst
}

// DistinctProducerCount and DistinctEntityCount report |Up| and |E| for the
// leaf-entry tuple of the signature tree.
func (p *Profile) DistinctProducerCount() int { return len(p.prodCount) }
func (p *Profile) DistinctEntityCount(c string) int {
	return len(p.entCount[c])
}

// ProducerTotal returns the total long-term producer-browse count (the
// denominator of the producer MLE).
func (p *Profile) ProducerTotal() int { return p.prodTotal }

// EntityTotal returns the total long-term entity count under category c
// (the denominator of the entity MLE).
func (p *Profile) EntityTotal(c string) int { return p.entTotal[c] }

// CategoryVector returns the normalised long-term category distribution
// over the supplied category universe — the feature vector used by
// one-pass clustering to form user blocks.
func (p *Profile) CategoryVector(universe []string) []float64 {
	v := make([]float64, len(universe))
	if p.total == 0 {
		return v
	}
	for i, c := range universe {
		v[i] = float64(p.catCount[c]) / float64(p.total)
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
	return (float64(p.prodCount[up]) + bg.Mu*bg.ProducerProb(up)) / (float64(p.prodTotal) + bg.Mu)
}

// EntityMLE returns the Dirichlet-smoothed estimate p̂(e|uc) within
// category c.
func (p *Profile) EntityMLE(c, e string, bg *Background) float64 {
	return (float64(p.entCount[c][e]) + bg.Mu*bg.EntityProb(c, e)) / (float64(p.entTotal[c]) + bg.Mu)
}

// CategoryMLE returns the plain long-term MLE of browsing category c with
// add-one smoothing over nCats categories — the fallback category
// probability when no trained BiHMM is available.
func (p *Profile) CategoryMLE(c string, nCats int) float64 {
	return (float64(p.catCount[c]) + 1) / (float64(p.total) + float64(nCats))
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

// FromSnapshot rebuilds a profile from its wire form.
func FromSnapshot(s Snapshot) *Profile {
	p := New(s.UserID, s.WindowSize)
	p.history = make([]string, 0, len(s.LongTerm))
	p.producers = make([]string, 0, len(s.LongTerm))
	p.longEvents = make([]Event, 0, len(s.LongTerm))
	for _, e := range s.LongTerm {
		p.addLongTerm(e)
	}
	p.window = append(p.window, s.Window...)
	return p
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

// Store is a concurrency-free collection of profiles keyed by user ID.
type Store struct {
	profiles   map[string]*Profile
	windowSize int
}

// NewStore returns an empty store creating profiles with windowSize.
func NewStore(windowSize int) *Store {
	return &Store{profiles: make(map[string]*Profile), windowSize: windowSize}
}

// Get returns the profile for userID, creating it on first use.
func (s *Store) Get(userID string) *Profile {
	p := s.profiles[userID]
	if p == nil {
		p = New(userID, s.windowSize)
		s.profiles[userID] = p
	}
	return p
}

// Put stores p under its UserID, replacing any profile held for that user.
func (s *Store) Put(p *Profile) {
	s.profiles[p.UserID] = p
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
