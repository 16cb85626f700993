package bihmm

import (
	"sort"

	"ssrec/internal/hmm"
)

// ProducerLayer is the a-HMM layer: one classic HMM per producer over the
// categories of the items it creates, plus the Viterbi-decoded hidden state
// of every created item — the Z values that condition the consumer layer.
type ProducerLayer struct {
	NZ         int // hidden states per producer model
	M          int // categories
	MinHistory int // producers with fewer items share the unknown bucket

	models    map[string]*hmm.Model
	histories map[string][]int // item category sequence per producer
	states    map[string][]int // decoded state per item position
}

// ProducerLayerOptions configures FitProducerLayer.
type ProducerLayerOptions struct {
	NZ         int   // hidden states per producer (default 3)
	MinHistory int   // minimum items to train a model (default 5)
	Seed       int64 // training seed
	Train      hmm.TrainOptions
}

func (o *ProducerLayerOptions) fill() {
	if o.NZ <= 0 {
		o.NZ = 3
	}
	if o.MinHistory <= 0 {
		o.MinHistory = 5
	}
}

// FitProducerLayer trains an a-HMM for every producer whose item-category
// history has at least MinHistory entries and Viterbi-decodes the hidden
// state of each created item. histories maps producer ID to the category
// indices of its items in creation order.
func FitProducerLayer(histories map[string][]int, mcats int, opts ProducerLayerOptions) *ProducerLayer {
	opts.fill()
	pl := &ProducerLayer{
		NZ:         opts.NZ,
		M:          mcats,
		MinHistory: opts.MinHistory,
		models:     make(map[string]*hmm.Model),
		histories:  make(map[string][]int, len(histories)),
		states:     make(map[string][]int),
	}
	// Deterministic iteration order for reproducible seeds.
	ids := make([]string, 0, len(histories))
	for id := range histories {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for k, id := range ids {
		seq := histories[id]
		pl.histories[id] = append([]int(nil), seq...)
		if len(seq) < opts.MinHistory {
			continue
		}
		m, _, err := hmm.Fit(opts.NZ, mcats, [][]int{seq}, opts.Seed+int64(k), opts.Train)
		if err != nil {
			continue
		}
		pl.models[id] = m
		path, _ := m.Viterbi(seq)
		pl.states[id] = path
	}
	return pl
}

// Model returns the a-HMM of a producer, or nil if untrained.
func (pl *ProducerLayer) Model(producer string) *hmm.Model { return pl.models[producer] }

// TrainedProducers returns the number of producers with trained models.
func (pl *ProducerLayer) TrainedProducers() int { return len(pl.models) }

// StateAt returns the decoded hidden state of the producer's pos-th item,
// or ZUnknown when the producer is untrained or pos is out of range.
func (pl *ProducerLayer) StateAt(producer string, pos int) int {
	st := pl.states[producer]
	if pos < 0 || pos >= len(st) {
		return ZUnknown
	}
	return st[pos]
}

// AlignedStateAt returns the producer's decoded state at pos labelled by
// its dominant emission category (the argmax of the state's B row), or
// ZUnknown.
//
// Raw state indices are producer-relative — state 1 of producer A and
// state 1 of producer B describe unrelated regimes — so pooling them in
// the consumer layer's shared conditional matrices washes the dependency
// out. Labelling each state by the category it predominantly emits gives
// the conditioning variable Z a globally consistent meaning while staying
// a pure function of the a-HMM, and is what makes the Fig. 5 BiHMM
// advantage reproducible (see DESIGN.md, implementation refinements).
// The aligned alphabet size is the category count M.
func (pl *ProducerLayer) AlignedStateAt(producer string, pos int) int {
	z := pl.StateAt(producer, pos)
	if z == ZUnknown {
		return ZUnknown
	}
	return pl.dominantCategory(producer, z)
}

func (pl *ProducerLayer) dominantCategory(producer string, state int) int {
	m := pl.models[producer]
	if m == nil || state < 0 || state >= m.N {
		return ZUnknown
	}
	best, arg := -1.0, 0
	for c, p := range m.B[state] {
		if p > best {
			best, arg = p, c
		}
	}
	return arg
}

// CurrentZ predicts the producer's hidden state for its next item: the most
// likely transition target from the last decoded state. Returns ZUnknown
// for untrained producers.
func (pl *ProducerLayer) CurrentZ(producer string) int {
	m := pl.models[producer]
	st := pl.states[producer]
	if m == nil || len(st) == 0 {
		return ZUnknown
	}
	last := st[len(st)-1]
	best, arg := -1.0, 0
	for j, p := range m.A[last] {
		if p > best {
			best, arg = p, j
		}
	}
	return arg
}

// ObserveItem appends a newly created item (category index) to a producer's
// history and extends its decoded state sequence incrementally (greedy
// one-step extension: argmax_j A[last][j]·B[j][cat]). Untrained producers
// accumulate history only; once they reach MinHistory the caller may refit
// via Refit.
func (pl *ProducerLayer) ObserveItem(producer string, cat int) {
	pl.histories[producer] = append(pl.histories[producer], cat)
	m := pl.models[producer]
	if m == nil {
		return
	}
	st := pl.states[producer]
	if len(st) == 0 {
		best, arg := -1.0, 0
		for j := 0; j < m.N; j++ {
			if v := m.Pi[j] * m.B[j][cat]; v > best {
				best, arg = v, j
			}
		}
		pl.states[producer] = append(st, arg)
		return
	}
	last := st[len(st)-1]
	best, arg := -1.0, 0
	for j := 0; j < m.N; j++ {
		if v := m.A[last][j] * m.B[j][cat]; v > best {
			best, arg = v, j
		}
	}
	pl.states[producer] = append(st, arg)
}

// Refit retrains the producer's model on its accumulated history (used by
// periodic maintenance). Returns false if the history is still too short.
func (pl *ProducerLayer) Refit(producer string, seed int64, train hmm.TrainOptions) bool {
	seq := pl.histories[producer]
	if len(seq) < pl.MinHistory {
		return false
	}
	m, _, err := hmm.Fit(pl.NZ, pl.M, [][]int{seq}, seed, train)
	if err != nil {
		return false
	}
	pl.models[producer] = m
	path, _ := m.Viterbi(seq)
	pl.states[producer] = path
	return true
}

// LayerSnapshot is the exported wire form of a ProducerLayer.
type LayerSnapshot struct {
	NZ         int
	M          int
	MinHistory int
	Models     map[string]*hmm.Model
	Histories  map[string][]int
	States     map[string][]int
}

// Snapshot exports the layer (models are shared, not copied — callers must
// not mutate them after snapshotting).
func (pl *ProducerLayer) Snapshot() LayerSnapshot {
	s := LayerSnapshot{
		NZ: pl.NZ, M: pl.M, MinHistory: pl.MinHistory,
		Models:    make(map[string]*hmm.Model, len(pl.models)),
		Histories: make(map[string][]int, len(pl.histories)),
		States:    make(map[string][]int, len(pl.states)),
	}
	for k, v := range pl.models {
		s.Models[k] = v.Clone()
	}
	for k, v := range pl.histories {
		s.Histories[k] = append([]int(nil), v...)
	}
	for k, v := range pl.states {
		s.States[k] = append([]int(nil), v...)
	}
	return s
}

// LayerFromSnapshot rebuilds a ProducerLayer.
func LayerFromSnapshot(s LayerSnapshot) *ProducerLayer {
	pl := &ProducerLayer{
		NZ: s.NZ, M: s.M, MinHistory: s.MinHistory,
		models:    make(map[string]*hmm.Model, len(s.Models)),
		histories: make(map[string][]int, len(s.Histories)),
		states:    make(map[string][]int, len(s.States)),
	}
	for k, v := range s.Models {
		pl.models[k] = v.Clone()
	}
	for k, v := range s.Histories {
		pl.histories[k] = append([]int(nil), v...)
	}
	for k, v := range s.States {
		pl.states[k] = append([]int(nil), v...)
	}
	return pl
}

// SelectConsumerStates mirrors hmm.SelectStates for the conditioned
// consumer model: it picks the consumer hidden-state count 1..maxStates
// with the best next-category accuracy on the last 20% of the observation
// sequence, returning the count, the model and the accuracy.
func SelectConsumerStates(seq []Obs, maxStates, nz, mcats int, seed int64, opts TrainOptions) (int, *BHMM, float64) {
	if maxStates < 1 {
		maxStates = 1
	}
	split := len(seq) * 8 / 10
	if split < 2 {
		split = len(seq) - 1
	}
	if split < 1 {
		b, _, _ := Fit(1, nz, mcats, [][]Obs{seq}, seed, opts)
		return 1, b, 0
	}
	train := [][]Obs{seq[:split]}
	bestN, bestAcc := 1, -1.0
	var bestModel *BHMM
	for n := 1; n <= maxStates; n++ {
		b, _, err := Fit(n, nz, mcats, train, seed+int64(n), opts)
		if err != nil {
			continue
		}
		acc := EvaluateNextPrediction(b, seq, split)
		if acc > bestAcc {
			bestN, bestAcc, bestModel = n, acc, b
		}
	}
	return bestN, bestModel, bestAcc
}

// EvaluateNextPrediction measures next-category accuracy of a trained BHMM
// over the suffix starting at start, conditioning each prediction on the
// true producer state of the next item (which is known at recommendation
// time — the incoming item carries its producer).
func EvaluateNextPrediction(m *BHMM, seq []Obs, start int) float64 {
	if start < 1 {
		start = 1
	}
	if start >= len(seq) {
		return 0
	}
	hits := 0
	for t := start; t < len(seq); t++ {
		p := m.PredictNextGivenZ(seq[:t], seq[t].Z)
		if argmax(p) == seq[t].Cat {
			hits++
		}
	}
	return float64(hits) / float64(len(seq)-start)
}

func argmax(p []float64) int {
	best, arg := p[0], 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return arg
}
