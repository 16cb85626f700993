package shardtest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakWait is how long Main waits for the package's goroutines to exit
// once its tests have passed.
const leakWait = 5 * time.Second

// Main is a package's TestMain: it runs the tests and, when they pass,
// waits up to leakWait for every goroutine with a frame in this module's
// internal packages to exit. A goroutine still running then — a stream
// reader, a server or a ticker that teardown should have stopped — fails
// the package, and its stack is printed.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := awaitGoroutines(leakWait); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutine(s) still running %v after the tests passed:\n\n%s\n",
				len(leaked), leakWait, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// awaitGoroutines polls until no goroutine of the module is left or wait
// has passed, and returns the stacks of those still running.
func awaitGoroutines(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// moduleGoroutines returns the stack of every goroutine but the caller's
// that runs, or was started by, code in ssrec/internal/.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(string(buf), "\n\n")
	var leaked []string
	for _, g := range stacks[1:] { // the first stack is the caller's own
		if strings.Contains(g, "ssrec/internal/") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
