package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where a run lives: the directories it may write, and how long
// building the binaries under test took.
type env struct {
	binDir string // built f3dd and f3dc
	outDir string // logs, traces, result files
	buildS float64
}

// findRoot walks up from the working directory to the repo root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "f3dd", "main.go")) &&
			isFile(filepath.Join(dir, "benchmark", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repo root (go.mod + cmd/f3dd + benchmark/) above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// newEnv locates the repo and builds the two binaries under test from
// source into .bench_build/bin. The Go build cache and work directories
// are kept inside the checkout as well (run.sh exports the same
// locations for its own build of the benchmark).
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		binDir: filepath.Join(root, ".bench_build", "bin"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	build := filepath.Join(root, ".bench_build")
	for _, d := range []string{e.binDir, e.outDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/f3dd", "./cmd/f3dc")
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(build, "gocache"),
		"GOTMPDIR="+filepath.Join(build, "tmp"),
		"XDG_CONFIG_HOME="+filepath.Join(build, "config"),
		"GOFLAGS=", "GOTOOLCHAIN=local", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/f3dd ./cmd/f3dc: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return e, nil
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// children tracks every process the benchmark started (key -> how to
// stop it), so that each exit path — normal return, error, panic,
// SIGINT/SIGTERM — can stop them all and no f3dd is orphaned.
var children struct {
	mu   sync.Mutex
	live map[any]func()
}

func trackChild(key any, stop func()) {
	children.mu.Lock()
	defer children.mu.Unlock()
	if children.live == nil {
		children.live = map[any]func(){}
	}
	children.live[key] = stop
}

func untrackChild(key any) {
	children.mu.Lock()
	defer children.mu.Unlock()
	delete(children.live, key)
}

func stopAllChildren() {
	children.mu.Lock()
	stops := make([]func(), 0, len(children.live))
	for _, stop := range children.live {
		stops = append(stops, stop)
	}
	children.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// guard is deferred at the top of every goroutine the benchmark starts:
// a panic there would otherwise end the process without running main's
// deferred cleanup.
func guard() {
	if r := recover(); r != nil {
		stopAllChildren()
		panic(r)
	}
}

// stopChildrenOnSignal stops the children and exits when the benchmark
// itself is interrupted. The returned function releases the handler.
func stopChildrenOnSignal() (release func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			stopAllChildren()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// daemon is one running f3dd child.
type daemon struct {
	url     string
	cmd     *exec.Cmd
	log     *os.File
	waited  chan struct{} // closed once cmd.Wait has returned
	stopped sync.Once
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

const readyTimeout = 10 * time.Second

// startDaemon launches f3dd on an ephemeral loopback port with its
// stderr in out/<name>.log and returns once /healthz answers 200. The
// port is picked by bind-and-release, so a rare collision is retried on
// a fresh port.
func (e *env) startDaemon(name string, hc *http.Client, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := e.startDaemonOnce(name, hc, args...)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (e *env) startDaemonOnce(name string, hc *http.Client, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.outDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin("f3dd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start f3dd: %w", err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, log: logf, waited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(d.waited)
	}()
	trackChild(d, d.stop)

	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.waited:
			d.stop()
			return nil, fmt.Errorf("f3dd %s exited before becoming ready (see %s)", name, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("f3dd %s not ready on %s after %s", name, addr, readyTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the daemon — SIGTERM, then SIGKILL if it has not exited
// within three seconds — and returns once the process is gone.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
		select {
		case <-d.waited:
		case <-time.After(3 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.waited
		}
		d.log.Close()
		untrackChild(d)
	})
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// rssMB reads a process's resident set size from /proc; 0 when the
// platform has no /proc.
func rssMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
