// Package model defines the shared data types of the ssRec reproduction:
// social items v = ⟨c, up, E⟩ and user–item interactions, matching the
// notation table (Table I) of Zhou et al., ICDE 2019.
package model

import "fmt"

// Item is a social item v = ⟨c, up, E⟩: a category, the producer that
// created it and the set of entities extracted from its description.
type Item struct {
	ID          string
	Category    string
	Producer    string   // up: the user that created the item
	Entities    []string // E: extracted entities (repeats allowed)
	Description string   // raw description the entities came from
	Timestamp   int64    // creation time (unix seconds in generated data)
}

func (v Item) String() string {
	return fmt.Sprintf("item(%s c=%s up=%s |E|=%d)", v.ID, v.Category, v.Producer, len(v.Entities))
}

// Interaction is one user–item interaction event on the interaction stream:
// consumer UserID browsed ItemID at Timestamp.
type Interaction struct {
	UserID    string
	ItemID    string
	Timestamp int64
}

// Recommendation is one entry of a top-k user list for an item.
type Recommendation struct {
	UserID string
	Score  float64
}

// ByScoreDesc orders recommendations best-first with a deterministic
// user-ID tie-break.
func ByScoreDesc(a, b Recommendation) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.UserID < b.UserID
}

// ShardOf assigns a user to one of n shards by FNV-1a hash of the user ID.
// It is THE ownership rule of a sharded deployment: the router, every
// engine shard and any future RPC shard must agree on it, so it lives in
// the leaf package everyone already imports. n <= 1 always maps to 0.
func ShardOf(userID string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv64(userID) % uint64(n))
}

// fnv64 is the FNV-1a hash behind ShardOf.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
