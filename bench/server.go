//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one sipproxyd child process.
type server struct {
	cmd        *exec.Cmd
	addr       string // SIP listen address, read from the child's log
	metricsURL string // set when started with -metrics-addr
	exited     chan struct{}
	out        *logWatcher
}

var (
	listenRe  = regexp.MustCompile(`listening on (\S+) `) // the address is followed by more of the line
	metricsRe = regexp.MustCompile(`metrics on (http://\S+/metrics)`)
)

// logWatcher receives the child's output, picks the bound addresses out of
// it, and keeps the tail for error messages.
type logWatcher struct {
	mu      sync.Mutex
	tail    []byte
	addr    chan string
	metrics chan string
}

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tail = append(w.tail, p...)
	if m := listenRe.FindSubmatch(w.tail); m != nil && w.addr != nil {
		w.addr <- string(m[1])
		w.addr = nil
	}
	if m := metricsRe.FindSubmatch(w.tail); m != nil && w.metrics != nil {
		w.metrics <- string(m[1])
		w.metrics = nil
	}
	if len(w.tail) > 4096 && w.addr == nil {
		w.tail = w.tail[len(w.tail)-2048:]
	}
	return len(p), nil
}

func (w *logWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(string(w.tail))
}

// startServer execs sipproxyd on an ephemeral loopback port and waits for
// its "listening on" line. The child is killed when ctx ends.
func startServer(ctx context.Context, bin string, wl *workload, traced bool) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-domain", benchDomain}, wl.flags...)
	if traced {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	// Buffered so the writer never blocks; each is sent at most once.
	w := &logWatcher{addr: make(chan string, 1), metrics: make(chan string, 1)}
	addrCh, metricsCh := w.addr, w.metrics
	cmd.Stdout, cmd.Stderr = w, w
	// If bench itself is killed outright, the kernel takes the child too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), out: w}
	go func() {
		_ = cmd.Wait() // reaps the child; the exit status is not used
		close(s.exited)
	}()
	wait := func(ch chan string, what string) (string, error) {
		select {
		case v := <-ch:
			return v, nil
		case <-s.exited:
			return "", fmt.Errorf("sipproxyd exited before printing its %s: %s", what, w)
		case <-time.After(10 * time.Second):
			s.stop()
			return "", fmt.Errorf("sipproxyd printed no %s within 10s: %s", what, w)
		}
	}
	var err error
	if s.addr, err = wait(addrCh, "listen address"); err != nil {
		return nil, err
	}
	if traced {
		if s.metricsURL, err = wait(metricsCh, "metrics address"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// stop kills the child and returns once it has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only when the child has already gone
	<-s.exited
}

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// userHZ is the unit of /proc/<pid>/stat's utime and stime; Linux fixes it
// at 100 for user space on every architecture.
const userHZ = 100

// cpuSeconds is the child's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := bytes.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	utime, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable /proc stat line: %q", b)
	}
	return float64(utime+stime) / userHZ, nil
}

// peakRSSMB is the child's VmHWM, its resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unreadable VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// scrape reads the child's Prometheus text into name → value, names without
// the "gosip_" prefix. Labelled series are skipped.
func (s *server) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(s.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			m[strings.TrimPrefix(name, "gosip_")] = f
		}
	}
	return m, nil
}
