package server

// Parser-based golden test for the /metrics exposition: instead of matching
// a handful of substrings, parse every line and enforce the format's
// contracts — HELP for every family, cumulative histogram buckets that agree
// with _count, and counters that never decrease across scrapes.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"primelabel/internal/server/api"
)

// sample is one parsed metric line: family name, raw label text, value.
type sample struct {
	family string
	labels string
	value  float64
}

// parseExposition splits Prometheus text format into HELP-ed family names
// and samples, failing the test on any malformed line.
func parseExposition(t *testing.T, text string) (helped map[string]bool, samples []sample) {
	t.Helper()
	helped = make(map[string]bool)
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(ln, "# HELP "); ok {
			name, doc, found := strings.Cut(rest, " ")
			if !found || doc == "" {
				t.Errorf("HELP without docstring: %q", ln)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue // other comments (TYPE etc.) are legal
		}
		nameAndLabels, valueText, found := strings.Cut(ln, " ")
		if !found {
			t.Fatalf("metric line without value: %q", ln)
		}
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", ln, err)
		}
		family, labels := nameAndLabels, ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			family = nameAndLabels[:i]
			labels = nameAndLabels[i:]
			if !strings.HasSuffix(labels, "}") {
				t.Fatalf("unterminated label set: %q", ln)
			}
		}
		samples = append(samples, sample{family: family, labels: labels, value: v})
	}
	return helped, samples
}

// helpFamily maps a sample's family to the family its HELP line uses:
// histogram series drop the _bucket/_sum/_count suffix.
func helpFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suffix); ok {
			return f
		}
	}
	return name
}

func TestExpositionEveryFamilyHasHelp(t *testing.T) {
	m := NewMetrics()
	m.observeRequest("query", 200, time.Millisecond)
	var b strings.Builder
	m.WriteText(&b)
	helped, samples := parseExposition(t, b.String())
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	for _, s := range samples {
		if !helped[helpFamily(s.family)] {
			t.Errorf("series %s%s has no # HELP line", s.family, s.labels)
		}
	}
}

func TestExpositionHistogramBucketsCumulative(t *testing.T) {
	m := NewMetrics()
	for _, d := range []time.Duration{50 * time.Microsecond, 3 * time.Millisecond,
		40 * time.Millisecond, 10 * time.Second} {
		m.observeRequest("update", 200, d)
	}
	var b strings.Builder
	m.WriteText(&b)
	_, samples := parseExposition(t, b.String())

	// Group bucket samples by (family, label set minus le), preserving
	// emission order — the exposition writes buckets in ascending le order.
	type group struct {
		buckets []float64
		count   float64
		hasCnt  bool
	}
	groups := make(map[string]*group)
	keyOf := func(s sample) string {
		labels := s.labels
		if i := strings.Index(labels, `,le="`); i >= 0 {
			labels = labels[:i] + "}"
		} else if strings.HasPrefix(labels, `{le="`) {
			// A bare histogram (le is the only label) groups with its
			// unlabeled _sum/_count series.
			labels = ""
		}
		return helpFamily(s.family) + labels
	}
	for _, s := range samples {
		if strings.HasSuffix(s.family, "_bucket") {
			g := groups[keyOf(s)]
			if g == nil {
				g = &group{}
				groups[keyOf(s)] = g
			}
			g.buckets = append(g.buckets, s.value)
		}
		if strings.HasSuffix(s.family, "_count") {
			g := groups[keyOf(s)]
			if g == nil {
				g = &group{}
				groups[keyOf(s)] = g
			}
			g.count = s.value
			g.hasCnt = true
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, g := range groups {
		if len(g.buckets) == 0 || !g.hasCnt {
			t.Errorf("%s: incomplete histogram (buckets %d, count present %v)", key, len(g.buckets), g.hasCnt)
			continue
		}
		for i := 1; i < len(g.buckets); i++ {
			if g.buckets[i] < g.buckets[i-1] {
				t.Errorf("%s: bucket %d (%g) below bucket %d (%g) — not cumulative",
					key, i, g.buckets[i], i-1, g.buckets[i-1])
			}
		}
		if last := g.buckets[len(g.buckets)-1]; last != g.count {
			t.Errorf("%s: +Inf bucket %g != count %g", key, last, g.count)
		}
	}
}

func TestExpositionCountersMonotonicAcrossScrapes(t *testing.T) {
	_, c := startTracedServer(t, Config{})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML}); err != nil {
		t.Fatal(err)
	}
	scrape := func() map[string]float64 {
		t.Helper()
		text, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		_, samples := parseExposition(t, text)
		out := make(map[string]float64, len(samples))
		for _, s := range samples {
			out[s.family+s.labels] = s.value
		}
		return out
	}
	isCounter := func(name string) bool {
		return strings.Contains(name, "_total") ||
			strings.Contains(name, "_bucket") ||
			strings.Contains(name, "_count")
	}

	first := scrape()
	// Generate traffic between scrapes: queries, an update, an error.
	if _, err := c.Query("books", "//book"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("books", api.UpdateRequest{Op: api.OpInsert, Parent: 0, Index: 0, Tag: "x"}); err != nil {
		t.Fatal(err)
	}
	c.Query("books", "///") // deliberate 400
	second := scrape()

	checked := 0
	for key, v1 := range first {
		if !isCounter(key) {
			continue
		}
		v2, ok := second[key]
		if !ok {
			t.Errorf("counter %s disappeared between scrapes", key)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s decreased: %g -> %g", key, v1, v2)
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("only %d counter series checked — parser or exposition shrank unexpectedly", checked)
	}
	if second[`labeld_requests_total{endpoint="query"}`] <= first[`labeld_requests_total{endpoint="query"}`] {
		t.Error("query request counter did not advance with traffic")
	}
}

// TestExpositionDocMaxLabelBits checks the per-document width gauge against
// DocInfo.max_label_bits after an insert widened the labels.
func TestExpositionDocMaxLabelBits(t *testing.T) {
	_, c := startTracedServer(t, Config{})
	if _, err := c.Load("books", api.LoadRequest{XML: sampleXML, TrackOrder: true}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	// A chain of inserts under the newest node deepens the document, so
	// each one widens the widest label.
	parent := 0
	for i := 0; i < 4; i++ {
		resp, err := c.Insert("books", parent, 0, "x")
		if err != nil {
			t.Fatal(err)
		}
		parent = resp.Node
	}
	info, err := c.Info("books")
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxLabelBits <= before.MaxLabelBits {
		t.Fatalf("inserts did not widen the labels: %d -> %d bits", before.MaxLabelBits, info.MaxLabelBits)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	helped, samples := parseExposition(t, text)
	if !helped["labeld_doc_max_label_bits"] {
		t.Error("labeld_doc_max_label_bits has no # HELP line")
	}
	found := false
	for _, s := range samples {
		if s.family == "labeld_doc_max_label_bits" && s.labels == `{doc="books"}` {
			found = true
			if int(s.value) != info.MaxLabelBits {
				t.Errorf("labeld_doc_max_label_bits = %g, DocInfo.max_label_bits = %d", s.value, info.MaxLabelBits)
			}
		}
	}
	if !found {
		t.Error(`labeld_doc_max_label_bits{doc="books"} missing`)
	}
}
