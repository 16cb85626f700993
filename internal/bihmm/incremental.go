// Incremental forward-state maintenance for the consumer b-HMM.
//
// The scaled forward recurrence is Markovian: row t depends only on the
// normalized row t-1, the model parameters and observation t. A
// ForwardState therefore caches just the latest normalized alpha row and
// the prefix length; Extend folds new observations in by replaying the
// exact statement sequence of Forward on that row, which makes the
// resulting row bitwise identical to a full Forward pass over the whole
// prefix (same operations, same order, same operands — proved by
// induction on the prefix length and pinned by TestExtendMatchesForward).
//
// This is what turns the per-refresh prediction cost of a long-history
// consumer from O(T·NU²) into O(new·NU²): the ssRec engine keeps one
// ForwardState per (user, long/short side) and folds in only the
// observations that arrived since the last index refresh, and predicts
// from it into rows it reuses across refreshes.
package bihmm

// ForwardState caches the scaled forward pass over a growing observation
// prefix: the last normalized alpha row and how many observations produced
// it. The zero value is an empty state for no model; Extend binds it to a
// model on first use.
type ForwardState struct {
	m     *BHMM
	alpha []float64 // last normalized alpha row (undefined when n == 0)
	next  []float64 // scratch row swapped with alpha each step
	n     int
}

// Len returns how many observations the state has absorbed.
func (st *ForwardState) Len() int { return st.n }

// For reports whether the state currently tracks model m — callers must
// Reset (or let Extend auto-reset) when the consumer's model changed,
// since alpha rows from a different parameter set are meaningless.
func (st *ForwardState) For(m *BHMM) bool { return st.m == m }

// Reset empties the state and binds it to m, keeping the row buffers.
func (st *ForwardState) Reset(m *BHMM) {
	st.m = m
	st.n = 0
}

// Extend folds obs into the state, replaying Forward's recurrence on the
// cached row. Extending a state bound to a different model resets it
// first (the fallback path: the whole prefix must then be replayed by the
// caller). After Extend(st, seq[st.Len():]) the state row equals
// Forward(seq)'s last normalized alpha row bitwise.
func (m *BHMM) Extend(st *ForwardState, obs []Obs) {
	if st.m != m {
		st.Reset(m)
	}
	if cap(st.alpha) < m.NU {
		st.alpha = make([]float64, m.NU)
		st.next = make([]float64, m.NU)
	}
	st.alpha = st.alpha[:m.NU]
	st.next = st.next[:m.NU]
	for _, o := range obs {
		if st.n == 0 {
			z0 := m.zSlot(o.Z)
			for i := 0; i < m.NU; i++ {
				st.alpha[i] = m.Pi[i] * m.B[z0][i][o.Cat]
			}
			normalize(st.alpha)
		} else {
			zt := m.zSlot(o.Z)
			prev, cur := st.alpha, st.next
			for j := 0; j < m.NU; j++ {
				var s float64
				for i := 0; i < m.NU; i++ {
					s += prev[i] * m.A[zt][i][j]
				}
				cur[j] = s * m.B[zt][j][o.Cat]
			}
			normalize(cur)
			st.alpha, st.next = cur, prev
		}
		st.n++
	}
}

// PredictScratchLen is the scratch length PredictNextMarginalState needs:
// one consumer-state row and one category row.
func (m *BHMM) PredictScratchLen() int { return m.NU + m.M }

// PredictNextMarginalState is PredictNextMarginal evaluated from a cached
// ForwardState instead of replaying the history, written into the
// caller-owned out (length M) with scratch (at least PredictScratchLen
// values) holding the per-z intermediate rows, so a warm caller allocates
// nothing. It runs the statements of PredictNextMarginal over
// PredictNextGivenZ in the same order on the same values, so out is
// bitwise identical to PredictNextMarginal(seq, zDist) when st has
// absorbed exactly seq — including the empty-history case (next = Pi, no
// transition applied). A nil zDist is uniform.
func (m *BHMM) PredictNextMarginalState(st *ForwardState, zDist, out, scratch []float64) {
	next, p := scratch[:m.NU], scratch[m.NU:m.NU+m.M]
	out = out[:m.M]
	clear(out)
	uniform := 1 / float64(m.NZ+1)
	// Slot z conditions on producer state zForSlot(z), whose parameter
	// slice is slot z again.
	for z := 0; z <= m.NZ; z++ {
		w := uniform
		if zDist != nil {
			w = zDist[z]
		}
		if w == 0 {
			continue
		}
		if st.n == 0 {
			copy(next, m.Pi)
		} else {
			cur := st.alpha
			for j := 0; j < m.NU; j++ {
				var s float64
				for i := 0; i < m.NU; i++ {
					s += cur[i] * m.A[z][i][j]
				}
				next[j] = s
			}
		}
		for c := 0; c < m.M; c++ {
			var s float64
			for j := 0; j < m.NU; j++ {
				s += next[j] * m.B[z][j][c]
			}
			p[c] = s
		}
		for c := range out {
			out[c] += w * p[c]
		}
	}
}
