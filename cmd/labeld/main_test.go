package main

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
)

// startRun launches run() with the given extra args, waits for the
// "listening on" line, and returns a client plus the run error channel. The
// remaining output keeps draining in the background (the pipe would
// otherwise block run's shutdown message) and is available via rest after
// errc yields.
func startRun(t *testing.T, ctx context.Context, extra ...string) (*client.Client, chan error, func() string) {
	t.Helper()
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		errc <- err
	}()
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.TrimSpace(line[i+len("listening on "):])
			var mu sync.Mutex
			var tail strings.Builder
			go func() {
				for sc.Scan() {
					mu.Lock()
					tail.WriteString(sc.Text() + "\n")
					mu.Unlock()
				}
			}()
			rest := func() string {
				mu.Lock()
				defer mu.Unlock()
				return tail.String()
			}
			return client.New("http://"+addr, nil), errc, rest
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("run exited before listening: %v", err)
	default:
		t.Fatal("output closed before listening line")
	}
	return nil, nil, nil
}

func TestRunServesAndStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, errc, rest := startRun(t, ctx)

	h, err := c.Healthz()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
	if _, err := c.Load("d", api.LoadRequest{XML: "<a><b/></a>"}); err != nil {
		t.Fatal(err)
	}
	ok, err := c.IsAncestor("d", 0, 1)
	if err != nil || !ok {
		t.Fatalf("ancestor: %v, %v", ok, err)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after cancel")
	}
	if !strings.Contains(rest(), "shutting down") {
		t.Errorf("shutdown message missing from output: %q", rest())
	}
}

// TestRunStopsOnSIGINT exercises the same signal wiring main installs.
func TestRunStopsOnSIGINT(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	c, errc, _ := startRun(t, ctx)
	if _, err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after SIGINT")
	}
}

func TestRunPreload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.xml")
	if err := os.WriteFile(path, []byte("<c><x/><y/></c>"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, errc, _ := startRun(t, ctx, "-preload", path)

	info, err := c.Info("catalog")
	if err != nil || info.Elements != 3 {
		t.Fatalf("preloaded doc: %+v, %v", info, err)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRunPreloadOutlivesSignal cancels run's context before it starts, as
// a signal during a large preload would: the preload still completes and
// labeld then shuts down cleanly.
func TestRunPreloadOutlivesSignal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.xml")
	if err := os.WriteFile(path, []byte("<c><x/><y/></c>"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-preload", path}, &out); err != nil {
		t.Fatalf("run returned %v; output %q", err, out.String())
	}
	if !strings.Contains(out.String(), `preloaded "catalog"`) {
		t.Errorf("preload message missing from output: %q", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	// The last three are removed options: the query sharding and adaptive
	// freezing they configured are gone, and a stale service definition
	// must fail loudly rather than start without them.
	for _, flag := range []string{"-nope", "-query-parallel=4", "-freeze-after=1m", "-freeze-min-reads=3"} {
		if err := run(context.Background(), []string{flag}, io.Discard); err == nil {
			t.Fatalf("bad flag %s accepted", flag)
		}
	}
	if err := run(context.Background(), []string{"-preload", "/does/not/exist.xml", "-addr", "127.0.0.1:0"}, io.Discard); err == nil {
		t.Fatal("missing preload file accepted")
	}
}

// startBinary launches a labeld binary with the given flags, waits for its
// "listening on" line, and returns a client plus the running process.
func startBinary(t *testing.T, bin string, flags ...string) (*client.Client, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.TrimSpace(line[i+len("listening on "):])
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return client.New("http://"+addr, nil), cmd
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("labeld binary exited before listening")
	return nil, nil
}

// TestKillDashNineRecovery is the acceptance test for the durability layer:
// build the real binary, drive an update burst over HTTP, SIGKILL the
// process with no warning, restart it on the same -data-dir, and require
// labels, relabel counters and SC order answers to match the last
// acknowledged pre-crash state exactly.
func TestKillDashNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real binary")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "labeld.test.bin")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(work, "data")

	c, proc := startBinary(t, bin, "-data-dir", dataDir)
	killed := false
	defer func() {
		if !killed {
			proc.Process.Kill()
			proc.Wait()
		}
	}()

	xml := "<store><shelf><book><title>A</title></book><book><title>B</title></book></shelf><shelf><book><title>C</title></book></shelf></store>"
	if _, err := c.Load("books", api.LoadRequest{XML: xml, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	// Update burst: every acknowledged response was journaled and fsync'd
	// before the server answered, so all of it must survive the kill.
	for i := 0; i < 12; i++ {
		if _, err := c.Insert("books", 0, i%3, "shelf"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Wrap("books", 2, "featured"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteNode("books", 5); err != nil {
		t.Fatal(err)
	}
	want, err := c.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := c.Query("books", "//*")
	if err != nil {
		t.Fatal(err)
	}
	var wantBefore []bool
	for b := 1; b <= 5; b++ {
		ok, err := c.Before("books", 0, b)
		if err != nil {
			t.Fatal(err)
		}
		wantBefore = append(wantBefore, ok)
	}

	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()
	killed = true

	c2, proc2 := startBinary(t, bin, "-data-dir", dataDir)
	defer func() {
		proc2.Process.Kill()
		proc2.Wait()
	}()
	got, err := c2.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("info after kill -9 restart = %+v, want %+v", got, want)
	}
	gotQ, err := c2.Query("books", "//*")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotQ.Nodes) != len(wantQ.Nodes) {
		t.Fatalf("element count %d, want %d", len(gotQ.Nodes), len(wantQ.Nodes))
	}
	for i := range wantQ.Nodes {
		if gotQ.Nodes[i] != wantQ.Nodes[i] {
			t.Errorf("node %d = %+v, want %+v", i, gotQ.Nodes[i], wantQ.Nodes[i])
		}
	}
	for b := 1; b <= 5; b++ {
		ok, err := c2.Before("books", 0, b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantBefore[b-1] {
			t.Errorf("before(0,%d) = %v, want %v", b, ok, wantBefore[b-1])
		}
	}
	// The restarted server keeps taking durable updates.
	if _, err := c2.Insert("books", 0, 0, "shelf"); err != nil {
		t.Fatal(err)
	}
}

// TestRunDataDirRestart drives the in-process run() path: durable flags,
// graceful shutdown (final snapshot), recovery log lines on restart.
func TestRunDataDirRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, errc, _ := startRun(t, ctx, "-data-dir", dataDir, "-snapshot-every", "4")
	if _, err := c.Load("d", api.LoadRequest{XML: "<a><b/><c/></a>"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("d", 0, 0, "n"); err != nil {
		t.Fatal(err)
	}
	h, err := c.Healthz()
	if err != nil || !h.Durable {
		t.Fatalf("healthz = %+v, %v; want durable", h, err)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	c2, errc2, _ := startRun(t, ctx2, "-data-dir", dataDir)
	info, err := c2.Info("d")
	if err != nil || info.Elements != 4 || info.Generation != 1 || !info.Durable {
		t.Fatalf("recovered info = %+v, %v", info, err)
	}
	metrics, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "labeld_recovered_documents_total 1") {
		t.Error("metrics missing recovered-documents count")
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatal(err)
	}
}
