// Command bench is the repository benchmark. Each workload is one ordered,
// backlogged stream driven by one client in a closed loop (the next
// operation is sent when the previous one completes):
//
//	query-10k   in-process engine, one fresh item per call
//	ingest-10k  ssrec-server with a WAL, 64-observation /v2/observe batches
//	fleet-5k    ssrec-server over two ssrec-shardd, one /v2/session
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload query-10k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics of the workload; --trace 1 climbs all three layer ladders and
// reports every per-layer metric. A failed correctness gate exits 1 after
// printing the result; a run that cannot finish exits non-zero without one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one run, set-up included, below the 180 s a run must
// finish in; when it expires every child process is killed and the run
// fails. In-process steps do not watch the context, so a backstop stops
// the whole program shortly after.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the fuller record written by -json: the printed result plus
// the host block, the workload's counts and the failures seen.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Size     string             `json:"size"`
	Result   result             `json:"result"`
	Counts   map[string]float64 `json:"counts,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Host     host               `json:"host"`
}

// host describes where a run was measured.
type host struct {
	GoMaxProcs   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	GoVersion    string `json:"go_version"`
	GitCommit    string `json:"git_commit"`
	StealJiffies int64  `json:"steal_jiffies"`
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"query-10k":  runQuery,
	"ingest-10k": runIngest,
	"fleet-5k":   runFleet,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "query-10k, ingest-10k or fleet-5k")
	seed := fs.Int64("seed", 1, "seed of the generated dataset and of training")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 climbs the per-layer ladders instead of the end-to-end run")
	jsonPath := fs.String("json", "", "also write the full report (host block, counts) to this file")
	sizeName := fs.String("size", "full", "full, or smoke: about 1k users and 100 operations")
	root := fs.String("root", ".", "repository root holding cmd/ssrec-server and cmd/ssrec-shardd")
	out := fs.String("out", ".bench_build", "directory for built binaries and run directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	size, sizeOK := sizes[*sizeName]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want query-10k, ingest-10k or fleet-5k)\n", *workload)
		return 2
	case !sizeOK:
		fmt.Fprintf(stderr, "bench: unknown size %q (want full or smoke)\n", *sizeName)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "bench: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	}

	// A vanished reader of stdout or stderr must not kill the run before
	// it has stopped its children and removed its directory.
	signal.Ignore(syscall.SIGPIPE)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(*root, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer e.close()
	e.seed, e.seconds, e.size = *seed, time.Duration(*seconds)*time.Second, size
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	// Children die with the context, which unblocks any client call
	// waiting on them. Returning cancels the context and waits for the
	// watcher before e.close removes the run directory.
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		<-ctx.Done()
		e.killAll()
	}()
	defer func() {
		cancel()
		<-watched
	}()
	backstop := time.AfterFunc(runBudget+5*time.Second, func() {
		fmt.Fprintln(stderr, "bench: run budget exceeded")
		e.close()
		os.Exit(3)
	})
	defer backstop.Stop()

	var o *outcome
	if *trace == 1 {
		o, err = runLadders(ctx, e)
	} else {
		o, err = runWorkload(ctx, e)
	}
	if ctx.Err() != nil {
		err = fmt.Errorf("stopped: %w", context.Cause(ctx))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", *workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, f := range o.failures {
		fmt.Fprintf(stderr, "bench: gate failed: %s\n", f)
	}
	if *jsonPath != "" {
		rep := report{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Size: *sizeName,
			Result: res, Counts: o.counts, Notes: o.notes, Failures: o.failures,
			Host: host{
				GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
				GitCommit: gitCommit(*root), StealJiffies: o.steal,
			},
		}
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// gitCommit reads the checked-out commit from .git without running git,
// which could wander into a repository above root; "unknown" when root is
// not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// outcome is what one workload or ladder run measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	counts    map[string]float64
	notes     []string
	steal     int64 // steal jiffies during the timed phases
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]float64{}}
}

func (o *outcome) correct() bool { return o.failed == 0 }

// ops records n attempted operations; a non-nil err marks all n failed.
func (o *outcome) ops(n int, err error) {
	o.attempted += n
	if err != nil {
		o.failed += n
		o.fail(err)
	}
}

// fail records a failed check. Only the first few messages are kept: one
// systematic fault would otherwise repeat itself thousands of times.
func (o *outcome) fail(err error) {
	if len(o.failures) < 20 {
		o.failures = append(o.failures, err.Error())
	}
}

// gate records a run-level check that is not an operation of its own.
func (o *outcome) gate(err error) {
	if err != nil {
		o.failed++
		o.fail(err)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}
