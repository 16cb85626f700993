package main

import (
	"fmt"
	"math"
	"slices"

	"ssrec/internal/model"
)

// checkAnswer reports why a top-k answer is malformed: it must be ordered
// best first (model.ByScoreDesc), name no user twice and carry only finite
// scores. seen is scratch space, cleared here, so the check allocates
// nothing per call once it has grown.
func checkAnswer(item string, recs []model.Recommendation, seen map[string]struct{}) error {
	clear(seen)
	for i, r := range recs {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return fmt.Errorf("item %s: user %s has score %v", item, r.UserID, r.Score)
		}
		if _, dup := seen[r.UserID]; dup {
			return fmt.Errorf("item %s: user %s answered twice", item, r.UserID)
		}
		seen[r.UserID] = struct{}{}
		if i > 0 && !model.ByScoreDesc(recs[i-1], r) {
			return fmt.Errorf("item %s: answer out of order at rank %d", item, i)
		}
	}
	return nil
}

// sameAnswer reports whether two answers agree bit for bit: the same users
// in the same order with the same score bits.
func sameAnswer(a, b []model.Recommendation) bool {
	return slices.EqualFunc(a, b, func(x, y model.Recommendation) bool {
		return x.UserID == y.UserID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// compareTranscripts checks got against the reference answers want and
// counts every answer that differs as a failure.
func compareTranscripts(o *outcome, what string, got, want [][]model.Recommendation) {
	if len(got) != len(want) {
		o.gate(fmt.Errorf("%s: %d answers, reference has %d", what, len(got), len(want)))
		return
	}
	for i := range got {
		if !sameAnswer(got[i], want[i]) {
			o.gate(fmt.Errorf("%s: answer %d differs from the reference", what, i))
		}
	}
}
