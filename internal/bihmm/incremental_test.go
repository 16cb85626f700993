package bihmm

import (
	"math/rand"
	"testing"
)

// randObsSeq builds a mixed observation sequence with known and unknown
// producer states, the shapes the consumer layer actually produces.
func randObsSeq(rng *rand.Rand, m *BHMM, n int) []Obs {
	obs := make([]Obs, n)
	for i := range obs {
		z := rng.Intn(m.NZ + 1)
		if z == m.NZ {
			z = ZUnknown
		}
		obs[i] = Obs{Cat: rng.Intn(m.M), Z: z}
	}
	return obs
}

// TestExtendMatchesForward pins the bitwise-identity claim: after
// extending a state observation by observation, the cached row equals the
// last normalized alpha row of a full Forward pass over the same prefix —
// exactly, not approximately — and the marginal next-category prediction
// from the state equals PredictNextMarginal on the replayed history.
func TestExtendMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewRandom(4, 3, 5, rng)
	seq := randObsSeq(rng, m, 60)
	zDist := []float64{0.1, 0.2, 0.3, 0.4}

	var st ForwardState
	got := make([]float64, m.M)
	scratch := make([]float64, m.PredictScratchLen())
	for n := 0; n <= len(seq); n++ {
		if n > 0 {
			m.Extend(&st, seq[n-1:n]) // one observation at a time
		}
		if st.Len() != n && n > 0 {
			t.Fatalf("after %d obs: Len() = %d", n, st.Len())
		}
		if n > 0 {
			alpha, _, _ := m.Forward(seq[:n])
			last := alpha[n-1]
			for i := range last {
				if st.alpha[i] != last[i] {
					t.Fatalf("prefix %d state %d: cached row %v != forward row %v",
						n, i, st.alpha[i], last[i])
				}
			}
		}
		for _, zd := range [][]float64{nil, zDist} {
			want := m.PredictNextMarginal(seq[:n], zd)
			m.PredictNextMarginalState(&st, zd, got, scratch)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("prefix %d cat %d: state predict %v != full predict %v",
						n, c, got[c], want[c])
				}
			}
		}
	}
}

// TestExtendChunked checks that folding in arbitrary-size chunks (the
// shape the engine produces: several observations between flushes) gives
// the same row as one-at-a-time extension.
func TestExtendChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewRandom(3, 2, 4, rng)
	seq := randObsSeq(rng, m, 40)

	var st ForwardState
	for i := 0; i < len(seq); {
		step := 1 + rng.Intn(7)
		if i+step > len(seq) {
			step = len(seq) - i
		}
		m.Extend(&st, seq[i:i+step])
		i += step
	}
	alpha, _, _ := m.Forward(seq)
	last := alpha[len(seq)-1]
	for i := range last {
		if st.alpha[i] != last[i] {
			t.Fatalf("state %d: chunked row %v != forward row %v", i, st.alpha[i], last[i])
		}
	}
}

// TestExtendModelSwapResets covers the fallback: extending a state bound
// to a different model must reset it, so replaying the full prefix under
// the new model yields the new model's forward row, not a mixture.
func TestExtendModelSwapResets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m1 := NewRandom(3, 2, 4, rng)
	m2 := NewRandom(3, 2, 4, rng)
	seq := randObsSeq(rng, m1, 10)

	var st ForwardState
	m1.Extend(&st, seq)
	if !st.For(m1) || st.For(m2) {
		t.Fatal("For() does not track the bound model")
	}
	// Auto-reset on mismatched Extend: caller replays the whole prefix.
	m2.Extend(&st, seq)
	if !st.For(m2) || st.Len() != len(seq) {
		t.Fatalf("after swap: For(m2)=%v Len=%d", st.For(m2), st.Len())
	}
	alpha, _, _ := m2.Forward(seq)
	last := alpha[len(seq)-1]
	for i := range last {
		if st.alpha[i] != last[i] {
			t.Fatalf("state %d after model swap: %v != %v", i, st.alpha[i], last[i])
		}
	}
	// Explicit Reset rewinds without rebinding buffers.
	st.Reset(m1)
	if st.Len() != 0 || !st.For(m1) {
		t.Fatal("Reset did not rewind the state")
	}
}

// TestPredictStateReusesRows pins the reuse contract: predicting into rows
// that hold a previous answer overwrites them completely, and a warm fold
// plus prediction allocates nothing.
func TestPredictStateReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewRandom(4, 19, 19, rng)
	seq := randObsSeq(rng, m, 40)
	out := make([]float64, m.M)
	for i := range out {
		out[i] = 42
	}
	scratch := make([]float64, m.PredictScratchLen())
	var st ForwardState
	m.Extend(&st, seq[:20])
	m.PredictNextMarginalState(&st, nil, out, scratch)
	want := m.PredictNextMarginal(seq[:20], nil)
	for c := range want {
		if out[c] != want[c] {
			t.Fatalf("cat %d: reused row %v != replay %v", c, out[c], want[c])
		}
	}
	n := 20
	allocs := testing.AllocsPerRun(10, func() {
		m.Extend(&st, seq[n:n+1])
		n++
		m.PredictNextMarginalState(&st, nil, out, scratch)
	})
	if allocs != 0 {
		t.Errorf("warm fold + predict allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkPredictFullVsIncremental quantifies the win: predicting after
// one appended observation on a 200-long history.
func BenchmarkPredictFullVsIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := NewRandom(4, 3, 6, rng)
	seq := randObsSeq(rng, m, 200)

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictNextMarginal(seq, nil)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		var st ForwardState
		m.Extend(&st, seq[:len(seq)-1])
		out := make([]float64, m.M)
		scratch := make([]float64, m.PredictScratchLen())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Steady state: fold one observation, predict. (The fold mutates
			// st, so successive iterations model an ever-growing history —
			// exactly the production shape.)
			m.Extend(&st, seq[len(seq)-1:])
			m.PredictNextMarginalState(&st, nil, out, scratch)
		}
	})
}
