package profile

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ssrec/internal/model"
)

func ev(c, up string, ents ...string) Event {
	return Event{Category: c, Producer: up, Entities: ents}
}

func TestWindowFlushSemantics(t *testing.T) {
	p := New("u1", 3)
	for i := 0; i < 3; i++ {
		p.Observe(ev("sports", "bbc"))
	}
	if p.WindowLen() != 3 || p.LongTermLen() != 0 {
		t.Fatalf("window=%d long=%d, want 3/0", p.WindowLen(), p.LongTermLen())
	}
	// Fourth observation must flush the full window first.
	p.Observe(ev("music", "mtv"))
	if p.WindowLen() != 1 || p.LongTermLen() != 3 {
		t.Fatalf("window=%d long=%d, want 1/3", p.WindowLen(), p.LongTermLen())
	}
	if p.CategoryCount("sports") != 3 {
		t.Errorf("sports count = %d", p.CategoryCount("sports"))
	}
	if p.CategoryCount("music") != 0 {
		t.Errorf("music leaked into long-term before flush")
	}
}

func TestWindowNeverExceedsCapacity(t *testing.T) {
	p := New("u1", 5)
	for i := 0; i < 57; i++ {
		p.Observe(ev(fmt.Sprintf("c%d", i%3), "up"))
		if p.WindowLen() > 5 {
			t.Fatalf("window overflow at i=%d: %d", i, p.WindowLen())
		}
	}
	if p.TotalLen() != 57 {
		t.Fatalf("TotalLen = %d, want 57", p.TotalLen())
	}
}

func TestFlushPreservesCounts(t *testing.T) {
	p := New("u1", 4)
	p.Observe(ev("a", "p1", "e1", "e2"))
	p.Observe(ev("b", "p2", "e1"))
	p.Flush()
	if p.WindowLen() != 0 {
		t.Fatalf("window not empty after flush")
	}
	if p.EntityCount("a", "e1") != 1 || p.EntityCount("a", "e2") != 1 || p.EntityCount("b", "e1") != 1 {
		t.Errorf("entity counts wrong after flush")
	}
	if p.ProducerCount("p1") != 1 || p.ProducerCount("p2") != 1 {
		t.Errorf("producer counts wrong after flush")
	}
	if got := p.CategorySequence(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("history = %v", got)
	}
	if got := p.ProducerSequence(); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Errorf("producers = %v", got)
	}
}

// leafStats is every long-term statistic a signature-tree leaf reads from
// a profile: totals, per-name counts and the key sets behind
// AppendProducers / AppendEntitiesIn, with the category set they span.
type leafStats struct {
	ProdTotal int
	Prods     map[string]int
	EntTotals map[string]int
	Ents      map[string]map[string]int
}

func leafStatsOf(p *Profile) leafStats {
	s := leafStats{ProdTotal: p.ProducerTotal(), Prods: map[string]int{},
		EntTotals: map[string]int{}, Ents: map[string]map[string]int{}}
	for _, up := range p.AppendProducers(nil) {
		s.Prods[up] = p.ProducerCount(up)
	}
	for _, c := range p.AppendCategories(nil) {
		s.EntTotals[c] = p.EntityTotal(c)
		s.Ents[c] = map[string]int{}
		for _, e := range p.AppendEntitiesIn(c, nil) {
			s.Ents[c][e] = p.EntityCount(c, e)
		}
	}
	return s
}

// TestNonRollingObserveKeepsLeafStats pins the contract the index's
// roll-gated refresh stands on: an Observe that does not roll the window
// leaves every long-term statistic a leaf lists unchanged, key sets
// included, and a rolling one is the only kind that moves them.
func TestNonRollingObserveKeepsLeafStats(t *testing.T) {
	p := New("u1", 3)
	p.ObserveLongTerm(ev("sports", "bbc", "arsenal"))
	cats := []string{"sports", "music", "news"}
	rolls := 0
	for i := 0; i < 20; i++ {
		before := leafStatsOf(p)
		c := cats[i%3]
		e := ev(c, fmt.Sprintf("up%d", i%4), fmt.Sprintf("%s-e%d", c, i%5))
		rolled := p.Observe(e)
		after := leafStatsOf(p)
		if !rolled && !reflect.DeepEqual(before, after) {
			t.Fatalf("observation %d did not roll but moved leaf statistics\nbefore %+v\nafter  %+v", i, before, after)
		}
		if rolled {
			rolls++
			if reflect.DeepEqual(before, after) {
				t.Fatalf("observation %d rolled without moving leaf statistics", i)
			}
		}
	}
	if rolls == 0 {
		t.Fatal("no observation rolled the window")
	}
}

func TestMinWindowSizeOne(t *testing.T) {
	p := New("u", 0)
	if p.WindowSize() != 1 {
		t.Fatalf("WindowSize = %d, want 1", p.WindowSize())
	}
	p.Observe(ev("a", "x"))
	p.Observe(ev("b", "y"))
	if p.LongTermLen() != 1 || p.WindowLen() != 1 {
		t.Fatalf("long=%d win=%d", p.LongTermLen(), p.WindowLen())
	}
}

func TestWindowCategoriesOrder(t *testing.T) {
	p := New("u", 10)
	for _, c := range []string{"x", "y", "z"} {
		p.Observe(ev(c, "p"))
	}
	if got := p.WindowCategories(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("WindowCategories = %v", got)
	}
}

func testBackground() *Background {
	items := []model.Item{
		{ID: "v1", Category: "sports", Producer: "bbc", Entities: []string{"Messi", "worldcup"}},
		{ID: "v2", Category: "sports", Producer: "bbc", Entities: []string{"Messi"}},
		{ID: "v3", Category: "music", Producer: "mtv", Entities: []string{"Adele"}},
		{ID: "v4", Category: "sports", Producer: "espn", Entities: []string{"Nadal"}},
	}
	return NewBackground(items, 10)
}

func TestBackgroundDistributions(t *testing.T) {
	bg := testBackground()
	if got := bg.ProducerProb("bbc"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("p(bbc) = %v, want 0.5", got)
	}
	if got := bg.EntityProb("sports", "Messi"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("p(Messi|sports) = %v, want 0.5", got)
	}
	if bg.ProducerProb("unknown") <= 0 {
		t.Errorf("unknown producer has non-positive background prob")
	}
	if bg.EntityProb("sports", "unknown") <= 0 {
		t.Errorf("unknown entity has non-positive background prob")
	}
}

func TestDirichletSmoothingNeverZero(t *testing.T) {
	bg := testBackground()
	p := New("u", 5)
	p.ObserveLongTerm(ev("sports", "bbc", "Messi"))
	if got := p.ProducerMLE("never-seen", bg); got <= 0 {
		t.Errorf("smoothed producer MLE = %v", got)
	}
	if got := p.EntityMLE("sports", "never-seen", bg); got <= 0 {
		t.Errorf("smoothed entity MLE = %v", got)
	}
	if got := p.EntityMLE("unseen-cat", "x", bg); got <= 0 {
		t.Errorf("smoothed entity MLE in unseen category = %v", got)
	}
}

func TestMLEFavorsObserved(t *testing.T) {
	bg := testBackground()
	p := New("u", 5)
	for i := 0; i < 20; i++ {
		p.ObserveLongTerm(ev("sports", "bbc", "Messi"))
	}
	p.ObserveLongTerm(ev("sports", "espn", "Nadal"))
	if p.ProducerMLE("bbc", bg) <= p.ProducerMLE("espn", bg) {
		t.Errorf("frequent producer not favored")
	}
	if p.EntityMLE("sports", "Messi", bg) <= p.EntityMLE("sports", "Nadal", bg) {
		t.Errorf("frequent entity not favored")
	}
}

func TestMLEApproachesEmpiricalWithData(t *testing.T) {
	bg := testBackground()
	p := New("u", 5)
	for i := 0; i < 990; i++ {
		p.ObserveLongTerm(ev("sports", "bbc", "Messi"))
	}
	for i := 0; i < 10; i++ {
		p.ObserveLongTerm(ev("sports", "espn", "Nadal"))
	}
	got := p.ProducerMLE("bbc", bg)
	if math.Abs(got-0.99) > 0.01 {
		t.Errorf("MLE = %v, want ≈0.99", got)
	}
}

func TestCategoryMLE(t *testing.T) {
	p := New("u", 5)
	p.ObserveLongTerm(ev("a", "x"))
	p.ObserveLongTerm(ev("a", "x"))
	p.ObserveLongTerm(ev("b", "x"))
	// add-one over 4 categories: (2+1)/(3+4)
	if got, want := p.CategoryMLE("a", 4), 3.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("CategoryMLE = %v, want %v", got, want)
	}
	if p.CategoryMLE("zzz", 4) <= 0 {
		t.Errorf("unseen category MLE is zero")
	}
}

func TestCategoryVector(t *testing.T) {
	p := New("u", 5)
	p.ObserveLongTerm(ev("a", "x"))
	p.ObserveLongTerm(ev("a", "x"))
	p.ObserveLongTerm(ev("b", "x"))
	universe := []string{"a", "b", "c"}
	got := p.CategoryVector(universe)
	want := []float64{2.0 / 3, 1.0 / 3, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("vec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	empty := New("e", 5)
	for _, v := range empty.CategoryVector(universe) {
		if v != 0 {
			t.Errorf("empty profile has non-zero vector")
		}
	}
}

func TestDistinctCounts(t *testing.T) {
	p := New("u", 5)
	p.ObserveLongTerm(ev("a", "p1", "e1", "e2"))
	p.ObserveLongTerm(ev("a", "p2", "e1"))
	p.ObserveLongTerm(ev("b", "p1", "e3"))
	if p.DistinctProducerCount() != 2 {
		t.Errorf("DistinctProducerCount = %d", p.DistinctProducerCount())
	}
	if p.DistinctEntityCount("a") != 2 || p.DistinctEntityCount("b") != 1 {
		t.Errorf("DistinctEntityCount = %d/%d", p.DistinctEntityCount("a"), p.DistinctEntityCount("b"))
	}
}

func TestEventFromItem(t *testing.T) {
	v := model.Item{ID: "i", Category: "c", Producer: "p", Entities: []string{"e"}}
	e := EventFromItem(v, 42)
	if e.Category != "c" || e.Producer != "p" || e.Timestamp != 42 || len(e.Entities) != 1 {
		t.Errorf("EventFromItem = %+v", e)
	}
}

func TestStore(t *testing.T) {
	s := NewStore(5)
	p1 := s.Get("u1")
	if s.Get("u1") != p1 {
		t.Errorf("Get not idempotent")
	}
	if _, ok := s.Lookup("u2"); ok {
		t.Errorf("Lookup invented a profile")
	}
	s.Get("u2")
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	seen := map[string]bool{}
	s.Each(func(p *Profile) { seen[p.UserID] = true })
	if !seen["u1"] || !seen["u2"] {
		t.Errorf("Each missed profiles: %v", seen)
	}
	if got := s.UserIDs(); len(got) != 2 {
		t.Errorf("UserIDs = %v", got)
	}
}

// Property: for any observation sequence, TotalLen equals the number of
// observations, the window never exceeds capacity, and category counts sum
// to LongTermLen.
func TestProfileAccountingProperty(t *testing.T) {
	f := func(raw []uint8, wRaw uint8) bool {
		w := int(wRaw%10) + 1
		p := New("u", w)
		for _, b := range raw {
			p.Observe(ev(fmt.Sprintf("c%d", b%5), fmt.Sprintf("p%d", b%3)))
			if p.WindowLen() > w {
				return false
			}
		}
		if p.TotalLen() != len(raw) {
			return false
		}
		var sum int
		for _, c := range p.Categories() {
			sum += p.CategoryCount(c)
		}
		return sum == p.LongTermLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: smoothed MLEs over a fixed support form a sub-distribution
// (each in (0,1), and the sum over observed support ≤ 1 + tolerance).
func TestMLEDistributionProperty(t *testing.T) {
	bg := testBackground()
	f := func(raw []uint8) bool {
		p := New("u", 3)
		prods := []string{"bbc", "mtv", "espn"}
		for _, b := range raw {
			p.ObserveLongTerm(ev("sports", prods[int(b)%3], "Messi"))
		}
		var sum float64
		for _, up := range prods {
			v := p.ProducerMLE(up, bg)
			if v <= 0 || v >= 1 {
				return false
			}
			sum += v
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	p := New("u", 5)
	e := ev("sports", "bbc", "Messi", "worldcup")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Observe(e)
	}
}

func BenchmarkProducerMLE(b *testing.B) {
	bg := testBackground()
	p := New("u", 5)
	for i := 0; i < 100; i++ {
		p.ObserveLongTerm(ev("sports", "bbc", "Messi"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProducerMLE("bbc", bg)
	}
}
