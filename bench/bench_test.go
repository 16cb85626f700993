package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ssrec/internal/model"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads this
// program emits, and to the limits a benchmark definition must respect.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !slices.Equal(bf.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}

	names := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if names[name] {
			t.Errorf("name %q used twice", name)
		}
		names[name] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var declared []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		declared = append(declared, w.Name)
	}
	var emitted []string
	for name := range workloads {
		emitted = append(emitted, name)
	}
	slices.Sort(declared)
	slices.Sort(emitted)
	if !slices.Equal(declared, emitted) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", declared, emitted)
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d emitted (limit 16)", n, len(endToEnd))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, program emits %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q, better %q, bound %v out of limits", m.Name, m.Unit, m.Better, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
	}
	if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" }); i < 0 ||
		endToEnd[i].Unit != "s" || endToEnd[i].Better != "lower" || endToEnd[i].Bound != largest {
		t.Errorf("setup_s must be declared in s, lower is better, with the largest bound")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d emitted (limit 128)", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, program emits %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q or better %q out of limits", m.Name, m.Unit, m.Better)
		}
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

// allowedImports are the repository packages the benchmark may call. A
// new layer dependency is a deliberate benchmark change: it edits this
// list.
var allowedImports = []string{
	"ssrec",
	"ssrec/internal/core",
	"ssrec/internal/dataset",
	"ssrec/internal/model",
	"ssrec/internal/ranking",
	"ssrec/internal/server",
}

func TestImportAllowlist(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			switch {
			case first == "ssrec":
				if !slices.Contains(allowedImports, path) {
					t.Errorf("%s imports %s, outside the benchmark's allowlist", name, path)
				}
			case strings.Contains(first, "."):
				t.Errorf("%s imports %s: only the standard library and the allowlisted packages", name, path)
			}
		}
	}
}

// TestGatesCountCorruptAnswers feeds corrupted answers to the gates and
// checks every one is counted as a failure.
func TestGatesCountCorruptAnswers(t *testing.T) {
	good := []model.Recommendation{{UserID: "u1", Score: 3}, {UserID: "u2", Score: 2}, {UserID: "u3", Score: 1}}
	seen := map[string]struct{}{}
	if err := checkAnswer("v", good, seen); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	corrupt := map[string]func([]model.Recommendation){
		"duplicate user": func(r []model.Recommendation) { r[2].UserID = "u1" },
		"out of order":   func(r []model.Recommendation) { r[0].Score = 0.5 },
		"NaN score":      func(r []model.Recommendation) { r[1].Score = math.NaN() },
		"infinite score": func(r []model.Recommendation) { r[0].Score = math.Inf(1) },
	}
	for name, mutate := range corrupt {
		bad := slices.Clone(good)
		mutate(bad)
		o := newOutcome()
		o.ops(1, checkAnswer("v", bad, seen))
		if o.failed != 1 || o.correct() {
			t.Errorf("%s: failed=%d correct=%v, want the answer counted as failed", name, o.failed, o.correct())
		}
	}

	// One flipped low bit of one score is a different answer.
	flipped := slices.Clone(good)
	flipped[1].Score = math.Float64frombits(math.Float64bits(flipped[1].Score) ^ 1)
	o := newOutcome()
	compareTranscripts(o, "test", [][]model.Recommendation{good, flipped}, [][]model.Recommendation{good, good})
	if o.failed != 1 || o.correct() {
		t.Errorf("flipped score bit: failed=%d, want 1", o.failed)
	}
	o = newOutcome()
	compareTranscripts(o, "test", [][]model.Recommendation{good}, [][]model.Recommendation{good, good})
	if o.correct() {
		t.Error("a missing answer was not counted")
	}
}

// TestSmoke runs every workload and the traced ladders at the smoke size
// (about 1k users, 100 operations): it builds the daemons, spawns and
// stops them, and passes every correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	out := t.TempDir()
	cases := []struct {
		workload string
		trace    string
		defs     []metricDef
	}{
		{"query-10k", "0", endToEnd},
		{"ingest-10k", "0", endToEnd},
		{"fleet-5k", "0", endToEnd},
		{"query-10k", "1", perLayer},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/trace="+tc.trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", tc.workload, "--seed", "3", "--seconds", "2", "--trace", tc.trace,
				"--size", "smoke", "--root", "..", "--out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not a result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(tc.defs) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(tc.defs))
			}
			for _, d := range tc.defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s missing or in the wrong unit: %+v", d.Name, m)
				}
			}
			if entries, _ := filepath.Glob(filepath.Join(out, "run-*")); len(entries) != 0 {
				t.Errorf("run directories left behind: %v", entries)
			}
		})
	}
}
