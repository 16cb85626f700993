// Package shx implements the shift-add-xor family of string hash functions
// (Ramakrishna & Zobel, DASFAA 1997) and the chained hash table of
// ⟨key, sptr, nextptr⟩ triads that the CPPse-index uses to map
// category–entity pairs to extended signature trees (Zhou et al., ICDE
// 2019, §V-A, Eq. 5).
//
// The hash is defined by
//
//	init(s)        = seed
//	step(h, c)     = h XOR (h<<L + h>>R + c)
//	final(h)       = h mod T
//
// computed left-to-right over the bytes of the key. L and R are the shift
// widths; the paper's "class" of functions is parameterised by the seed.
package shx

import "fmt"

// Default parameters. L=5, R=2 is the classic pairing from the paper's
// reference; the table size is chosen by the table constructor.
const (
	DefaultSeed = 1315423911
	DefaultL    = 5
	DefaultR    = 2
)

// Hasher is a reusable shift-add-xor hash function.
type Hasher struct {
	Seed uint32
	L    uint // left shift
	R    uint // right shift
}

// NewHasher returns a Hasher with the default parameters.
func NewHasher() Hasher {
	return Hasher{Seed: DefaultSeed, L: DefaultL, R: DefaultR}
}

// Hash returns the raw (pre-modulo) shift-add-xor hash of s.
func (h Hasher) Hash(s string) uint32 {
	v := h.Seed
	for i := 0; i < len(s); i++ {
		v ^= (v << h.L) + (v >> h.R) + uint32(s[i])
	}
	return v
}

// HashMod returns the hash reduced modulo t (the final(h, s) = h || T step
// of Eq. 5). t must be positive.
func (h Hasher) HashMod(s string, t uint32) uint32 {
	if t == 0 {
		panic("shx: zero table size")
	}
	return h.Hash(s) % t
}

// PairKey builds the canonical string key for a ⟨category, entity⟩ phrase.
// A unit separator keeps ("ab","c") distinct from ("a","bc").
func PairKey(category, entity string) string {
	return category + "\x1f" + entity
}

// triad is one element of a bucket chain: the paper's ⟨key, sptr, nextptr⟩.
type triad struct {
	key  string
	raw  uint32 // cached full hash for fast chain scans
	ptrs []any  // sptr: pointers to extended signature trees (one per block)
	next *triad // nextptr
}

// Table is a chained hash table from string keys to sets of tree pointers.
// It intentionally mirrors the paper's structure (bucket array of triad
// chains) rather than wrapping a Go map, so that the AblationHash benchmark
// can compare the two fairly. The zero value is not usable; use NewTable.
type Table struct {
	hasher  Hasher
	buckets []*triad
	size    int
}

// NewTable returns a table with the given number of buckets (rounded up to
// a minimum of 1).
func NewTable(buckets int) *Table {
	if buckets < 1 {
		buckets = 1
	}
	return &Table{hasher: NewHasher(), buckets: make([]*triad, buckets)}
}

// Len returns the number of distinct keys stored.
func (t *Table) Len() int { return t.size }

// Buckets returns the number of buckets.
func (t *Table) Buckets() int { return len(t.buckets) }

// Insert appends ptr to the pointer set of key, creating the triad if the
// key is new. Duplicate pointers for a key are allowed (the caller — the
// CPPse-index — guarantees one pointer per block).
func (t *Table) Insert(key string, ptr any) {
	raw := t.hasher.Hash(key)
	slot := raw % uint32(len(t.buckets))
	for tr := t.buckets[slot]; tr != nil; tr = tr.next {
		if tr.raw == raw && tr.key == key {
			tr.ptrs = append(tr.ptrs, ptr)
			return
		}
	}
	t.buckets[slot] = &triad{key: key, raw: raw, ptrs: []any{ptr}, next: t.buckets[slot]}
	t.size++
}

// Lookup returns the pointer set for key, or nil if absent.
func (t *Table) Lookup(key string) []any {
	raw := t.hasher.Hash(key)
	slot := raw % uint32(len(t.buckets))
	for tr := t.buckets[slot]; tr != nil; tr = tr.next {
		if tr.raw == raw && tr.key == key {
			return tr.ptrs
		}
	}
	return nil
}

// Contains reports whether key is present.
func (t *Table) Contains(key string) bool { return t.Lookup(key) != nil }

// Delete removes key and returns whether it was present.
func (t *Table) Delete(key string) bool {
	raw := t.hasher.Hash(key)
	slot := raw % uint32(len(t.buckets))
	var prev *triad
	for tr := t.buckets[slot]; tr != nil; prev, tr = tr, tr.next {
		if tr.raw == raw && tr.key == key {
			if prev == nil {
				t.buckets[slot] = tr.next
			} else {
				prev.next = tr.next
			}
			t.size--
			return true
		}
	}
	return false
}

// Range calls fn for every (key, pointer set) pair until fn returns false.
// Iteration order is unspecified.
func (t *Table) Range(fn func(key string, ptrs []any) bool) {
	for _, head := range t.buckets {
		for tr := head; tr != nil; tr = tr.next {
			if !fn(tr.key, tr.ptrs) {
				return
			}
		}
	}
}

// ChainStats describes bucket occupancy, useful for verifying the
// uniformity property the paper cites as the reason for choosing
// shift-add-xor hashing.
type ChainStats struct {
	Buckets   int
	Keys      int
	MaxChain  int
	NonEmpty  int
	AvgChain  float64 // over non-empty buckets
	LoadRatio float64 // keys / buckets
}

// Stats computes occupancy statistics.
func (t *Table) Stats() ChainStats {
	s := ChainStats{Buckets: len(t.buckets), Keys: t.size}
	for _, head := range t.buckets {
		n := 0
		for tr := head; tr != nil; tr = tr.next {
			n++
		}
		if n > 0 {
			s.NonEmpty++
			if n > s.MaxChain {
				s.MaxChain = n
			}
		}
	}
	if s.NonEmpty > 0 {
		s.AvgChain = float64(s.Keys) / float64(s.NonEmpty)
	}
	if s.Buckets > 0 {
		s.LoadRatio = float64(s.Keys) / float64(s.Buckets)
	}
	return s
}

func (s ChainStats) String() string {
	return fmt.Sprintf("buckets=%d keys=%d nonEmpty=%d maxChain=%d avgChain=%.2f load=%.2f",
		s.Buckets, s.Keys, s.NonEmpty, s.MaxChain, s.AvgChain, s.LoadRatio)
}
