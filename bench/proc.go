package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one benchmark run's environment: the built binaries, a private
// run directory that is removed on every exit path, and the child
// processes still to be stopped.
type env struct {
	root    string // repository root
	bin     string // directory holding ssrec-server and ssrec-shardd
	dir     string // this run's scratch directory
	log     io.Writer
	start   time.Time
	seed    int64
	seconds time.Duration
	size    sizing

	mu    sync.Mutex
	procs []*proc
}

// newEnv builds ssrec-server and ssrec-shardd from the sources under root
// into out/bin and creates the run directory under out.
func newEnv(root, out string, log io.Writer) (*env, error) {
	var err error
	if root, err = filepath.Abs(root); err != nil {
		return nil, fmt.Errorf("resolve root: %w", err)
	}
	if out, err = filepath.Abs(out); err != nil {
		return nil, fmt.Errorf("resolve output directory: %w", err)
	}
	bin := filepath.Join(out, "bin")
	if err := buildBinaries(root, bin); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, fmt.Errorf("create run directory: %w", err)
	}
	return &env{root: root, bin: bin, dir: dir, log: log, start: time.Now()}, nil
}

// buildBinaries compiles the two daemons of the commit under test; the
// build is never part of a measured set-up.
func buildBinaries(root, bin string) error {
	for _, dir := range []string{"cmd/ssrec-server", "cmd/ssrec-shardd"} {
		if _, err := os.Stat(filepath.Join(root, dir)); err != nil {
			return fmt.Errorf("%s is not an ssrec checkout: %w", root, err)
		}
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return fmt.Errorf("create binary directory: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ssrec-server", "./cmd/ssrec-shardd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build daemons: %v\n%s", err, out)
	}
	return nil
}

// close stops every child process and removes the run directory.
func (e *env) close() {
	e.killAll()
	os.RemoveAll(e.dir) //nolint:errcheck // best effort on the way out
}

// logf reports progress on standard error, stamped with the time since
// the daemons were built.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "bench: %6.1fs "+format+"\n", append([]any{time.Since(e.start).Seconds()}, args...)...)
}

// proc is one child daemon.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string // combined stdout and stderr of the child
	done    chan struct{}
}

// spawn starts one daemon from the built binaries. The child is killed if
// the benchmark itself dies, and its output goes to a log file in the run
// directory that is quoted when it fails to come up.
func (e *env) spawn(name, binary string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.dir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("create %s log: %w", name, err)
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(e.bin, binary), args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // every exit of a daemon is a SIGKILL or a failure seen by its client
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill stops the child with SIGKILL, so no shutdown work (a final WAL
// checkpoint, a drain) is measured or waited for, and waits for it to exit.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-p.done
}

func (e *env) killAll() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// tail returns the end of the child's log, for error messages.
func (p *proc) tail() string {
	data, _ := os.ReadFile(p.logPath) // best effort: the log only decorates an error
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

// waitReady polls url until it answers 200, the child exits or the ready
// timeout passes.
func waitReady(ctx context.Context, p *proc, url string) error {
	deadline := time.Now().Add(90 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.tail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s after 90s:\n%s", p.name, url, p.tail())
		}
	}
}

// ---- /proc readers ----

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
const clockTick = 10 * time.Millisecond

// procCPU returns the user plus system CPU time of a process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("read cpu time: %w", err)
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is first, utime the 12th and stime the 13th.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat cpu times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField returns one "Name: value" line of /proc/<pid>/<file> as an
// integer (the first number on the line).
func procField(pid, file, name string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/" + file)
	if err != nil {
		return 0, fmt.Errorf("read /proc/%s/%s: %w", pid, file, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/%s", name, pid, file)
}

// peakRSS returns a process's VmHWM in MB; pid "self" is this process.
func peakRSS(pid string) (float64, error) {
	kb, err := procField(pid, "status", "VmHWM")
	return float64(kb) / 1024, err
}

// resetPeakRSS sets this process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// ioBytes returns the bytes a process has passed through read and write
// calls, sockets included.
func ioBytes(pid string) (int64, error) {
	r, err := procField(pid, "io", "rchar")
	if err != nil {
		return 0, err
	}
	w, err := procField(pid, "io", "wchar")
	return r + w, err
}

// readSteal returns the host's steal jiffies so far, or 0 when /proc/stat
// does not report them.
func readSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64) // 0 on a malformed field is the documented fallback
	return v
}
