package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every Linux architecture Go supports).
const clockTicks = 100

// process is one running labeld.
type process struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

var (
	liveMu sync.Mutex
	live   = map[*process]bool{}
)

// startLabeld execs labeld on a loopback port of its choosing and returns
// once it listens.
func startLabeld(bin string, args ...string) (*process, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// labeld must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &process{cmd: cmd, exited: make(chan struct{})}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "labeld: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		close(addr)
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("labeld exited before listening")
		}
		p.base = "http://" + a
		return p, nil
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("labeld did not listen within 60s")
	}
}

func (p *process) pid() int { return p.cmd.Process.Pid }

// stop shuts labeld down gracefully (SIGINT: final snapshot, journals
// closed) and waits for it to exit; after 60s it is killed.
func (p *process) stop() error {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("labeld did not shut down within 60s")
	}
	p.forget()
	if st := p.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("labeld exited with %v", st)
	}
	return nil
}

func (p *process) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.forget()
}

func (p *process) forget() {
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// killAll stops every labeld still running.
func killAll() {
	liveMu.Lock()
	ps := make([]*process, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// cpuTime is a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are the 14th and 15th fields of the line, the 12th and
	// 13th after the parenthesized command name; both count clock ticks.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// conn is the load generator's single keep-alive connection to labeld.
// Response bodies are read raw into a reused buffer and never decoded in
// the loop.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the body, which stays
// valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(res.Body)
	res.Body.Close()
	return res.StatusCode, c.buf.Bytes(), err
}

// scrape reads labeld's /metrics into a map from series (name plus labels)
// to value.
func (c *conn) scrape() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
