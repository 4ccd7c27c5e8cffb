// Command labeld serves labeled XML documents over HTTP/JSON: load a
// document, ask ancestor/parent/order questions, evaluate XPath-subset
// queries — both answered from the document's element table — and apply
// dynamic updates (insert, wrap, delete) that report the paper's cost
// metric — how many nodes were relabeled. See README.md "Running the server" for the endpoint reference.
//
// Usage:
//
//	labeld -addr :8080
//	labeld -addr :8080 -preload catalog.xml -scheme prime
//	labeld -addr :8080 -data-dir /var/lib/labeld
//	labeld -addr :8081 -data-dir /var/lib/labeld-replica -follow http://primary:8080
//	labeld -promote http://replica:8081
//
// With -data-dir the server is durable: every document is snapshotted and
// every acknowledged update is journaled (fsync'd by default), so a crash —
// even kill -9 — loses nothing; on the next start the same -data-dir
// restores every document, labels and relabel counters intact. See
// docs/OPERATIONS.md for the full operational reference.
//
// The server shuts down gracefully on SIGINT/SIGTERM, completing in-flight
// requests and writing final snapshots before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"primelabel/internal/buildinfo"
	"primelabel/internal/server"
	"primelabel/internal/server/api"
	"primelabel/internal/server/client"
)

// splitList parses a comma-separated flag value into trimmed non-empty
// entries (nil for an empty value).
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// newLogger builds the process logger from the -log-format and -log-level
// flags. Records go to w (the same stream as the startup lines, so one
// pipeline captures both).
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "labeld:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("labeld", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 256, "per-document query cache capacity (negative disables)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline: a request that has not taken its document lock, or finished evaluating or parsing, by then answers 503 and changes nothing")
	grace := fs.Duration("grace", 10*time.Second, "graceful shutdown grace period")
	preload := fs.String("preload", "", "XML file to load at startup (document name = file basename)")
	scheme := fs.String("scheme", "prime", "labeling scheme for -preload")
	dataDir := fs.String("data-dir", "", "directory for snapshots and update journals (empty = in-memory only)")
	fsync := fs.Bool("fsync", true, "flush journal appends and snapshots to stable storage before acknowledging")
	snapshotEvery := fs.Int("snapshot-every", 1024, "journal records per document before a background snapshot compaction")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	slowRequest := fs.Duration("slow-request", 0, "log requests slower than this in full, with their span breakdown (0 disables)")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces (negative disables)")
	queryStatsShapes := fs.Int("querystats-shapes", 4096, "distinct (document, query shape) entries tracked for /debug/querystats before LRU eviction")
	debugAddr := fs.String("debug-addr", "", "extra listener serving net/http/pprof plus /debug/traces and /metrics (empty disables)")
	follow := fs.String("follow", "", "run as a read-only replica streaming the journal from this primary base URL (e.g. http://primary:8080)")
	followPoll := fs.Duration("follow-poll", 0, "how often a replica re-lists the primary's documents (0 = server default)")
	promote := fs.String("promote", "", "promote the replica at this base URL to primary (POST /promote) and exit")
	clusterSelf := fs.String("cluster-self", "", "this node's advertised base URL in the cluster (required with -cluster-nodes)")
	clusterNodes := fs.String("cluster-nodes", "", "comma-separated base URLs of every cluster member, self included (enables the cluster fabric: /topology, placement redirects, failover)")
	clusterPin := fs.String("cluster-pin", "", "comma-separated doc=url placement overrides that bypass the hash ring")
	clusterVNodes := fs.Int("cluster-vnodes", 0, "virtual nodes per member on the placement ring (0 = default)")
	clusterProbe := fs.Duration("cluster-probe", 0, "cluster health-probe sweep interval (0 = default)")
	failoverAfter := fs.Duration("failover-after", 0, "promote the designated successor after the followed primary has been unreachable this long (0 = default, negative disables)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("labeld"))
		return nil
	}
	if *promote != "" {
		resp, err := client.New(*promote, nil).Promote()
		if err != nil {
			return fmt.Errorf("promote %s: %w", *promote, err)
		}
		if resp.Promoted {
			fmt.Fprintf(stdout, "labeld: promoted %s to primary (%d document(s) now writable)\n",
				*promote, resp.Documents)
		} else {
			fmt.Fprintf(stdout, "labeld: %s is already a primary\n", *promote)
		}
		return nil
	}

	logger, err := newLogger(stdout, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	var pins map[string]string
	if *clusterPin != "" {
		pins = make(map[string]string)
		for _, pair := range strings.Split(*clusterPin, ",") {
			doc, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || doc == "" || url == "" {
				return fmt.Errorf("bad -cluster-pin entry %q (want doc=url)", pair)
			}
			pins[doc] = url
		}
	}

	srv, err := server.New(server.Config{
		Addr:             *addr,
		CacheSize:        *cache,
		RequestTimeout:   *timeout,
		ShutdownGrace:    *grace,
		DataDir:          *dataDir,
		NoFsync:          !*fsync,
		SnapshotEvery:    *snapshotEvery,
		Logger:           logger,
		SlowRequest:      *slowRequest,
		TraceBuffer:      *traceBuffer,
		QueryStatsShapes: *queryStatsShapes,
		DebugAddr:        *debugAddr,
		FollowURL:        *follow,
		FollowPoll:       *followPoll,
		ClusterSelf:      *clusterSelf,
		ClusterNodes:     splitList(*clusterNodes),
		ClusterPins:      pins,
		ClusterVNodes:    *clusterVNodes,
		ClusterProbe:     *clusterProbe,
		FailoverAfter:    *failoverAfter,
	})
	if err != nil {
		return err
	}

	if *dataDir != "" {
		names, err := srv.Recover()
		if err != nil {
			return fmt.Errorf("recover from %s: %w", *dataDir, err)
		}
		fmt.Fprintf(stdout, "labeld: recovered %d document(s) from %s\n", len(names), *dataDir)
		for _, n := range names {
			fmt.Fprintf(stdout, "labeld: recovered %q\n", n)
		}
	}

	if *preload != "" {
		xml, err := os.ReadFile(*preload)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(*preload), filepath.Ext(*preload))
		// A signal during the preload stops labeld once the load is done;
		// the store would read the cancelled context as a timed-out request.
		info, err := srv.Store().Load(context.WithoutCancel(ctx), name, api.LoadRequest{
			XML:        string(xml),
			Scheme:     *scheme,
			TrackOrder: true,
		})
		if err != nil {
			return fmt.Errorf("preload %s: %w", *preload, err)
		}
		fmt.Fprintf(stdout, "labeld: preloaded %q (%d elements, scheme %s)\n",
			info.Name, info.Elements, info.Scheme)
	}

	bound, err := srv.Start()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "labeld: listening on %s\n", bound)
	if *follow != "" {
		fmt.Fprintf(stdout, "labeld: read-only replica following %s (promote with labeld -promote)\n", *follow)
	}
	if *clusterNodes != "" {
		fmt.Fprintf(stdout, "labeld: cluster member %s of [%s] (topology at /topology)\n", *clusterSelf, *clusterNodes)
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "labeld: shutting down")
	return srv.Shutdown(context.Background())
}
