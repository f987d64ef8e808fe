package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
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

// buildSmtsimd compiles the daemon from the checkout under test into
// dir, before anything is timed.
func buildSmtsimd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "smtsimd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/smtsimd")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building smtsimd: %w", err)
	}
	return bin, nil
}

// daemon is one smtsimd process on a loopback port, with a store
// directory of its own and otherwise default flags except -workers 1.
type daemon struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
}

// probeClient bounds each health probe and metrics scrape, so a daemon
// that accepts but never answers cannot stall the benchmark.
var probeClient = &http.Client{Timeout: 5 * time.Second}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts smtsimd with its store in storeDir and waits until
// /healthz answers. A port lost to a race with another process is
// retried on a fresh one.
func startDaemon(bin, storeDir, logPath string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin, storeDir, logPath)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin, storeDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-store-dir", storeDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark process that owns it,
	// even when that process is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting smtsimd: %w", err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // exit status is reported through exited; the log has the reason
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("smtsimd on %s exited during startup (see %s)", addr, logPath)
		default:
		}
		if resp, err := probeClient.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("smtsimd on %s not healthy after 10s (see %s)", addr, logPath)
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon still running after 30s is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// hwmMB reads a process's peak resident set size (VmHWM) in MB.
func hwmMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64) // "VmHWM:  12345 kB"
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// pair is the two daemons a served workload talks to.
type pair []*daemon

// startPair starts two daemons in parallel, each on a fresh store
// directory under dir.
func startPair(bin, dir string) (pair, error) {
	p := make(pair, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range p {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			store, err := os.MkdirTemp(dir, fmt.Sprintf("store-%d-", i))
			if err != nil {
				errs[i] = err
				return
			}
			p[i], errs[i] = startDaemon(bin, store, filepath.Join(dir, fmt.Sprintf("smtsimd-%d.log", i)))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p pair) urls() []string {
	out := make([]string, len(p))
	for i, d := range p {
		out[i] = d.url
	}
	return out
}

// stop stops every started daemon in parallel and waits for all.
func (p pair) stop() {
	var wg sync.WaitGroup
	for _, d := range p {
		if d == nil {
			continue
		}
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// hwmMB is the daemons' summed peak RSS.
func (p pair) hwmMB() (float64, error) {
	var sum float64
	for _, d := range p {
		mb, err := hwmMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// promSample is one scrape of every daemon's /metrics: series name
// (with labels, as exposed) to value, one map per daemon.
type promSample []map[string]float64

func (p pair) scrape(ctx context.Context) (promSample, error) {
	out := make(promSample, len(p))
	for i, d := range p {
		m, err := scrapeMetrics(ctx, d.url+"/metrics")
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func scrapeMetrics(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	return parseProm(bufio.NewScanner(resp.Body))
}

// parseProm reads Prometheus text exposition lines into a map.
func parseProm(sc *bufio.Scanner) (map[string]float64, error) {
	m := make(map[string]float64)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta returns after−before of one series, per daemon.
func delta(before, after promSample, series string) []float64 {
	out := make([]float64, len(after))
	for i := range after {
		out[i] = after[i][series] - before[i][series]
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
