// Command perfbench is the end-to-end benchmark of labeld. It starts the
// real labeld binary, loads the paper's query corpus (the Shakespeare
// stand-in replicated five times) and drives one workload over loopback
// HTTP from a single closed-loop connection, checking every answer against
// one computed in-process at set-up. With -trace 1 it then replays the same
// op sequence in-process, wrapping the calls into each layer in spans, and
// reports per-layer numbers instead. See README.md.
//
//	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// workload sizes its op sequence from the run length: the nominal rate is
// what the workload sustains at the commit that defined the benchmark, so a
// run measures a fixed number of ops that takes about -seconds there.
type workload struct {
	name    string
	durable bool
	// build returns the plan for a run of the given length.
	build func(c *corpus, rng *rand.Rand, seconds int) (*plan, error)
}

var workloads = []workload{
	{"cold_queries", false, func(c *corpus, rng *rand.Rand, seconds int) (*plan, error) {
		return coldPlan(c, rng, max(1, seconds*coldRate/coldSweep))
	}},
	{"hot_reads", false, func(c *corpus, rng *rand.Rand, seconds int) (*plan, error) {
		return hotPlan(c, rng, max(20, seconds*hotRate/(2*hotQueries)))
	}},
	{"ordered_writes", true, func(c *corpus, rng *rand.Rand, seconds int) (*plan, error) {
		return orderedPlan(c, rng, max(minWriteCycles, seconds*orderedRate/(2*writeCycle)))
	}},
}

// Nominal rates in requests per second, and the fewest write cycles that
// let ordered_writes reach labeld's first background snapshot compaction
// (one per 1024 journal records by default) inside the measured window and
// give its latency percentiles a thousand samples.
const (
	coldSweep      = 1080
	coldRate       = 240
	hotRate        = 2500
	orderedRate    = 90
	minWriteCycles = 128
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the metrics a run prints, in BENCHMARK.json's
// order, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"query_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"max_label_bits", "bits"},
}

var perLayer = [][2]string{
	{"http.decode_ms", "ms"},
	{"http.encode_ms", "ms"},
	{"http.response_bytes", "B"},
	{"store.query_ms", "ms"},
	{"store.probe_ms", "ms"},
	{"store.update_ms", "ms"},
	{"store.self_ms", "ms"},
	{"store.cache_hit_ratio", "ratio"},
	{"xpath.parse_ms", "ms"},
	{"rdb.exec_ms", "ms"},
	{"rdb.candidates_per_result", "rows"},
	{"rdb.patch_insert_ms", "ms"},
	{"rdb.patch_delete_ms", "ms"},
	{"rdb.build_s", "s"},
	{"labeling.max_label_bits_ms", "ms"},
	{"labeling.ancestor_ms", "ms"},
	{"labeling.parent_ms", "ms"},
	{"labeling.before_ms", "ms"},
	{"labeling.fastpath_reject_ratio", "ratio"},
	{"labeling.insert_ms", "ms"},
	{"labeling.delete_ms", "ms"},
	{"labeling.relabeled_per_insert", "labels"},
	{"labeling.label_s", "s"},
	{"xmltree.materialize_ms", "ms"},
	{"xmlparse.parse_s", "s"},
	{"persist.append_ms", "ms"},
	{"persist.commit_ms", "ms"},
	{"persist.snapshot_ms", "ms"},
	{"persist.snapshots", "count"},
	{"persist.bytes_per_record", "B"},
	{"unaccounted_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"generator.cpu_ms_per_op", "ms"},
	{"generator.cpu_ratio", "ratio"},
	{"counter.cache_hits", "count"},
	{"counter.cache_misses", "count"},
	{"counter.reindex_incremental", "count"},
	{"counter.reindex_full", "count"},
	{"counter.journal_records", "count"},
	{"counter.journal_bytes", "B"},
	{"counter.journal_fsyncs", "count"},
	{"counter.snapshots", "count"},
	{"counter.fastpath_rejects", "count"},
	{"counter.gc_cycles", "count"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: cold_queries, hot_reads or ordered_writes")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 10, "nominal measured time; sizes the op count")
	traced := flag.Int("trace", 0, "1 = traced in-process replay, print per-layer metrics")
	bin := flag.String("labeld", "", "labeld binary")
	work := flag.String("work", "", "scratch directory for data directories")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -labeld <bin> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()
	defer killAll()

	b := &bench{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, bin: *bin, work: *work}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	keys := make([]string, 0, len(b.report))
	for k := range b.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-34s %14.6g %s\n", k, b.report[k].Value, b.report[k].Unit)
	}
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
