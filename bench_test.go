// Benchmarks regenerating the paper's tables and figures (one benchmark
// family per experiment) plus ablations over the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
package primelabel_test

import (
	"fmt"
	"sync"
	"testing"

	"primelabel/internal/datasets"
	"primelabel/internal/labeling"
	"primelabel/internal/labeling/interval"
	"primelabel/internal/labeling/prefix"
	"primelabel/internal/labeling/prime"
	"primelabel/internal/numtheory"
	"primelabel/internal/primes"
	"primelabel/internal/rdb"
	"primelabel/internal/sizemodel"
	"primelabel/internal/xmltree"
)

// --- Figure 3: prime bit-length estimation ---

func BenchmarkFig3PrimeEstimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, actual, estimated := sizemodel.Fig3Series(10000, 500)
		if len(actual) != len(estimated) {
			b.Fatal("series mismatch")
		}
	}
}

// --- Figures 4 & 5: the analytic size model ---

func BenchmarkFig4SizeModelFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for f := 5; f <= 50; f += 5 {
			_ = sizemodel.SelfLabelBits("prefix-1", 2, f)
			_ = sizemodel.SelfLabelBits("prefix-2", 2, f)
			_ = sizemodel.SelfLabelBits("prime", 2, f)
		}
	}
}

func BenchmarkFig5SizeModelDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 10; d++ {
			_ = sizemodel.SelfLabelBits("prefix-1", d, 15)
			_ = sizemodel.SelfLabelBits("prefix-2", d, 15)
			_ = sizemodel.SelfLabelBits("prime", d, 15)
		}
	}
}

// --- Table 1: dataset generation ---

func BenchmarkTable1GenerateDatasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range datasets.All() {
			doc := spec.Gen()
			if doc.Root == nil {
				b.Fatal("nil dataset")
			}
		}
	}
}

// --- Figure 13: labeling cost per optimization stage (dataset D8) ---

func BenchmarkFig13Labeling(b *testing.B) {
	stages := []struct {
		name string
		opts prime.Options
	}{
		{"original", prime.Options{}},
		{"opt1", prime.Options{ReservedPrimes: 16}},
		{"opt1+opt2", prime.Options{ReservedPrimes: 16, PowerOfTwoLeaves: true}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := datasets.D8()
				b.StartTimer()
				if _, err := (prime.Scheme{Opts: st.opts}).New(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("opt3-combined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			doc := datasets.D8()
			b.StartTimer()
			if _, err := prime.NewCombined(doc, prime.Options{ReservedPrimes: 16, PowerOfTwoLeaves: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 14: labeling cost per scheme (dataset D8) ---

func BenchmarkFig14Labeling(b *testing.B) {
	schemes := []struct {
		name string
		s    labeling.Scheme
	}{
		{"interval", interval.Scheme{Variant: interval.XISS}},
		{"prime", prime.Scheme{Opts: prime.Options{ReservedPrimes: 16, PowerOfTwoLeaves: true}}},
		{"prefix2", prefix.Scheme{Variant: prefix.Prefix2}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				doc := datasets.D8()
				b.StartTimer()
				if _, err := sc.s.Label(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2 / Figure 15: the query workload ---

// fig15State lazily builds the replicated corpus once per scheme.
var fig15State struct {
	once   sync.Once
	tables map[string]*rdb.Table
}

func fig15Tables(b *testing.B) map[string]*rdb.Table {
	b.Helper()
	fig15State.once.Do(func() {
		fig15State.tables = make(map[string]*rdb.Table)
		corpus := datasets.Replicate(datasets.D8(), 5)
		schemes := []struct {
			name string
			s    labeling.Scheme
		}{
			{"interval", interval.Scheme{Variant: interval.XISS}},
			{"prime", prime.Scheme{Opts: prime.Options{ReservedPrimes: 16, TrackOrder: true, SCChunk: 5}}},
			{"prefix2", prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: true}},
		}
		for _, sc := range schemes {
			lab, err := sc.s.Label(corpus.Clone())
			if err != nil {
				panic(err)
			}
			fig15State.tables[sc.name] = rdb.Build(lab)
		}
	})
	return fig15State.tables
}

var fig15Queries = map[string]string{
	"Q1": "//play//act[4]",
	"Q2": "//play//act[3]//following::act",
	"Q3": "//play//personae//persona",
	"Q4": "//act[5]//following::speech",
	"Q5": "//speech[4]//preceding::line",
	"Q6": "//play//act[3]//line",
	"Q8": "//play//speech",
	"Q9": "//play//line",
}

func BenchmarkFig15Queries(b *testing.B) {
	tables := fig15Tables(b)
	for _, scheme := range []string{"interval", "prime", "prefix2"} {
		for _, qid := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q8", "Q9"} {
			b.Run(fmt.Sprintf("%s/%s", qid, scheme), func(b *testing.B) {
				tab := tables[scheme]
				q := fig15Queries[qid]
				for i := 0; i < b.N; i++ {
					if _, err := tab.ExecPathString(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 16: leaf insertion cost ---

func BenchmarkFig16LeafInsert(b *testing.B) {
	schemes := []struct {
		name string
		s    labeling.Scheme
	}{
		{"interval", interval.Scheme{Variant: interval.XISS}},
		{"prime", prime.Scheme{Opts: prime.Options{PowerOfTwoLeaves: true, ReservedPrimes: 16}}},
		{"prefix2", prefix.Scheme{Variant: prefix.Prefix2}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			doc := datasets.SizeSeries(5000)
			lab, err := sc.s.Label(doc)
			if err != nil {
				b.Fatal(err)
			}
			target := datasets.DeepestElement(doc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lab.InsertChildAt(target, 0, xmltree.NewElement("n")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 17: non-leaf (wrap) insertion cost ---

func BenchmarkFig17WrapInsert(b *testing.B) {
	schemes := []struct {
		name string
		s    labeling.Scheme
	}{
		{"interval", interval.Scheme{Variant: interval.XISS}},
		{"prime", prime.Scheme{Opts: prime.Options{PowerOfTwoLeaves: true, ReservedPrimes: 16}}},
		{"prefix2", prefix.Scheme{Variant: prefix.Prefix2}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			doc := datasets.SizeSeries(5000)
			lab, err := sc.s.Label(doc)
			if err != nil {
				b.Fatal(err)
			}
			target := datasets.FirstAtDepth(doc, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := xmltree.NewElement("w")
				// Always wrap the same node: its subtree stays constant,
				// so each iteration measures one Figure 17 update (the
				// wrappers stack up above it).
				if _, err := lab.WrapNode(target, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 18: order-sensitive insertion cost ---

func BenchmarkFig18OrderedInsert(b *testing.B) {
	schemes := []struct {
		name string
		s    labeling.Scheme
	}{
		{"interval", interval.Scheme{Variant: interval.XISS}},
		{"prefix2-ordered", prefix.Scheme{Variant: prefix.Prefix2, OrderPreserving: true}},
		{"prime-sc", prime.Scheme{Opts: prime.Options{ReservedPrimes: 16, TrackOrder: true, SCChunk: 5}}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			doc := datasets.Hamlet()
			lab, err := sc.s.Label(doc)
			if err != nil {
				b.Fatal(err)
			}
			acts := xmltree.ElementsByName(doc.Root, "act")
			parent := acts[1].Parent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := parent.ChildIndex(acts[1])
				if _, err := lab.InsertChildAt(parent, idx, xmltree.NewElement("act")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: CRT solver choice (SC-table recomputation kernel) ---

func BenchmarkAblationCRT(b *testing.B) {
	ps := primes.FirstN(40)
	cs := make([]numtheory.Congruence, len(ps))
	for i, p := range ps {
		cs[i] = numtheory.Congruence{Mod: p, Rem: uint64(i % int(p))}
	}
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numtheory.CRT(cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("garner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numtheory.CRTGarner(cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("euler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numtheory.EulerCRT(cs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: SC chunk size vs ordered-insert cost ---

func BenchmarkAblationSCChunk(b *testing.B) {
	for _, chunk := range []int{1, 5, 20, 100} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			doc := datasets.Hamlet()
			lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true, SCChunk: chunk, ReservedPrimes: 16}}).New(doc)
			if err != nil {
				b.Fatal(err)
			}
			acts := xmltree.ElementsByName(doc.Root, "act")
			parent := acts[1].Parent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := parent.ChildIndex(acts[1])
				if _, err := lab.InsertChildAt(parent, idx, xmltree.NewElement("act")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: sparse order spacing vs ordered-insert cost (extension) ---

func BenchmarkAblationOrderSpacing(b *testing.B) {
	for _, spacing := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("spacing%d", spacing), func(b *testing.B) {
			doc := datasets.Hamlet()
			lab, err := (prime.Scheme{Opts: prime.Options{TrackOrder: true, SCChunk: 5, OrderSpacing: spacing, ReservedPrimes: -1}}).New(doc)
			if err != nil {
				b.Fatal(err)
			}
			acts := xmltree.ElementsByName(doc.Root, "act")
			parent := acts[1].Parent
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := parent.ChildIndex(acts[1])
				if _, err := lab.InsertChildAt(parent, idx, xmltree.NewElement("act")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: ancestor-predicate cost per scheme (the Figure 15 kernel) ---

func BenchmarkAblationAncestorPredicate(b *testing.B) {
	doc := datasets.D8()
	schemes := []struct {
		name string
		s    labeling.Scheme
	}{
		{"prime", prime.Scheme{Opts: prime.Options{ReservedPrimes: 16}}},
		{"prime-opt2", prime.Scheme{Opts: prime.Options{ReservedPrimes: 16, PowerOfTwoLeaves: true}}},
		{"interval", interval.Scheme{Variant: interval.XISS}},
		{"prefix2", prefix.Scheme{Variant: prefix.Prefix2}},
		{"dewey", prefix.DeweyScheme{}},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			lab, err := sc.s.Label(doc.Clone())
			if err != nil {
				b.Fatal(err)
			}
			els := xmltree.Elements(lab.Doc().Root)
			anc := els[0]
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if lab.IsAncestor(anc, els[i%len(els)]) {
					hits++
				}
			}
			_ = hits
		})
	}
}

// --- Ablation: prime recycling under insert/delete churn (extension) ---

func BenchmarkAblationRecycling(b *testing.B) {
	for _, recycle := range []bool{false, true} {
		name := "retire"
		if recycle {
			name = "recycle"
		}
		b.Run(name, func(b *testing.B) {
			root := xmltree.NewElement("r")
			for i := 0; i < 100; i++ {
				_ = root.AppendChild(xmltree.NewElement("c"))
			}
			doc := xmltree.NewDocument(root)
			lab, err := (prime.Scheme{Opts: prime.Options{RecyclePrimes: recycle}}).New(doc)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kids := root.ElementChildren()
				if err := lab.Delete(kids[0]); err != nil {
					b.Fatal(err)
				}
				if _, err := lab.InsertChildAt(root, len(root.Children), xmltree.NewElement("c")); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(lab.MaxLabelBits()), "max-label-bits")
		})
	}
}

// --- Ablation: structural join algorithm ---

func BenchmarkAblationJoin(b *testing.B) {
	corpus := datasets.D8()
	lab, err := (prime.Scheme{Opts: prime.Options{ReservedPrimes: 16}}).Label(corpus)
	if err != nil {
		b.Fatal(err)
	}
	tab := rdb.Build(lab)
	acts := tab.Scan("act")
	speeches := tab.Scan("speech")
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tab.NLJoin(acts, speeches, tab.AncestorPred())
		}
	})
	b.Run("stack-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tab.StackJoin(acts, speeches)
		}
	})
}

// --- Ablation: query planner (full-query nested-loop vs extent) ---

func BenchmarkAblationPlanner(b *testing.B) {
	doc := datasets.Replicate(datasets.D8(), 2)
	lab, err := (prime.Scheme{Opts: prime.Options{ReservedPrimes: -1, TrackOrder: true}}).Label(doc)
	if err != nil {
		b.Fatal(err)
	}
	const q = "//play//line"
	nl := rdb.Build(lab)
	ext := rdb.Build(lab)
	ext.Plan = rdb.Extent
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nl.ExecPathString(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ext.ExecPathString(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: prime sourcing (sieve batches vs per-number Miller-Rabin) ---

func BenchmarkAblationPrimeSource(b *testing.B) {
	const count = 5000
	b.Run("sieve-source", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := primes.NewSource()
			for j := 0; j < count; j++ {
				_ = src.Next()
			}
		}
	})
	b.Run("miller-rabin-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := uint64(1)
			for j := 0; j < count; j++ {
				p = primes.NextPrime(p)
			}
		}
	})
}

// --- Ablation: flat vs decomposed labels on a deep document ---

func BenchmarkAblationDecomposition(b *testing.B) {
	deep := func() *xmltree.Document {
		root := xmltree.NewElement("n")
		cur := root
		for i := 0; i < 200; i++ {
			c := xmltree.NewElement("n")
			_ = cur.AppendChild(c)
			cur = c
		}
		return xmltree.NewDocument(root)
	}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (prime.Scheme{}).New(deep()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decomposed-h8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (prime.DecomposedScheme{LayerHeight: 8}).New(deep()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: XISS slack factor vs append cost ---

func BenchmarkAblationIntervalSlack(b *testing.B) {
	for _, slack := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("slack%d", slack), func(b *testing.B) {
			doc := datasets.SizeSeries(3000)
			lab, err := (interval.Scheme{Variant: interval.XISS, Slack: slack}).New(doc)
			if err != nil {
				b.Fatal(err)
			}
			sections := xmltree.ElementsByName(doc.Root, "section")
			parent := sections[len(sections)/2]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lab.InsertChildAt(parent, len(parent.ElementChildren()), xmltree.NewElement("n")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
