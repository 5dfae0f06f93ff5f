package obsv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics / Prometheus text exposition over the registry.
//
// WriteOpenMetrics renders every instrument in the format scraped by
// Prometheus and friends (and declared by the OpenMetrics spec):
//
//	# TYPE derive_count counter
//	derive_count_total 3
//	# TYPE sim_node0_queue gauge
//	sim_node0_queue 4
//	# TYPE solve_seconds histogram
//	solve_seconds_bucket{le="0.001049"} 2
//	solve_seconds_bucket{le="+Inf"} 3
//	solve_seconds_sum 0.0041
//	solve_seconds_count 3
//	# TYPE solve_seconds_quantile gauge
//	solve_seconds_quantile{quantile="0.5"} 0.00104
//	# EOF
//
// Dotted registry names are mapped to the exposition grammar by
// replacing every character outside [a-zA-Z0-9_] with '_'
// ("sim.node0.queue" -> "sim_node0_queue"). Histograms emit one
// cumulative bucket line per *occupied* bucket of the log-bucketed
// table (the 2048-bucket layout is sparse in practice) plus the
// mandatory +Inf bucket, and a companion <name>_quantile gauge family
// carrying the p50/p90/p99 estimates the run summaries print.
//
// The output is parseable by ParseOpenMetrics below; the two are held
// together by round-trip tests, which is what keeps the format honest
// without a third-party client library.

// openMetricsContentType is the Content-Type the /metrics endpoint
// serves. Prometheus accepts it as OpenMetrics text.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// exportedQuantiles are the quantile estimates emitted per histogram,
// matching the manifest snapshot's p50/p90/p99.
var exportedQuantiles = []struct {
	label string // quantile label value
	key   string // key inside Metric.Quantiles
}{
	{"0.5", "p50"},
	{"0.9", "p90"},
	{"0.99", "p99"},
}

// sanitizeMetricName maps a dotted registry name onto the exposition
// name grammar [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeMetricName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			sb.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// formatFloat renders a sample value the way the parser reads it back:
// shortest round-trippable representation, with +Inf/-Inf/NaN spelled
// the OpenMetrics way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteOpenMetrics renders the registry snapshot in OpenMetrics text
// exposition format, families sorted by name, terminated by "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.Snapshot() {
		name := sanitizeMetricName(m.Name)
		switch m.Kind {
		case "counter":
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			fmt.Fprintf(bw, "%s_total %d\n", name, int64(m.Value))
		case "gauge":
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s %s\n", name, formatFloat(m.Value))
		case "histogram":
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatFloat(b.Upper), b.Count)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, m.Count)
			fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(m.Sum))
			fmt.Fprintf(bw, "%s_count %d\n", name, m.Count)
			fmt.Fprintf(bw, "# TYPE %s_quantile gauge\n", name)
			for _, q := range exportedQuantiles {
				fmt.Fprintf(bw, "%s_quantile{quantile=%q} %s\n", name, q.label, formatFloat(m.Quantiles[q.key]))
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// ParsedSample is one exposition line: a sample name (family name plus
// any _total/_bucket/_sum/_count suffix), its label set and the value.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family of an exposition: the declared
// type and the samples that followed the TYPE line.
type ParsedFamily struct {
	Name    string
	Type    string // "counter", "gauge", "histogram", ... or "untyped"
	Samples []ParsedSample
}

// ParseOpenMetrics reads a text exposition (the WriteOpenMetrics
// format, or any Prometheus-style exposition using only the features
// WriteOpenMetrics emits) into families keyed by name. No program path
// calls it: it is the stdlib-only decoder the exposition round-trip
// tests check the encoder against.
//
// Parsing is strict about what it accepts: every sample must belong to
// a previously declared family (its name must be the family name or
// the family name plus a _total/_bucket/_sum/_count/_quantile-less
// suffix), label values must be quoted, and the exposition must end
// with "# EOF". Escape sequences in label values are limited to \\,
// \" and \n, which is all the encoder can produce.
func ParseOpenMetrics(r io.Reader) (map[string]*ParsedFamily, error) {
	families := make(map[string]*ParsedFamily)
	var current *ParsedFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF && strings.TrimSpace(line) != "" {
			return nil, fmt.Errorf("obsv: line %d: content after # EOF", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "EOF" {
				sawEOF = true
				continue
			}
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if _, dup := families[name]; dup {
					return nil, fmt.Errorf("obsv: line %d: duplicate TYPE for %q", lineNo, name)
				}
				current = &ParsedFamily{Name: name, Type: typ}
				families[name] = current
			}
			// HELP/UNIT and other comments are skipped.
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obsv: line %d: %w", lineNo, err)
		}
		fam := familyFor(families, current, sample.Name)
		if fam == nil {
			fam = &ParsedFamily{Name: sample.Name, Type: "untyped"}
			families[sample.Name] = fam
		}
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("obsv: exposition does not end with # EOF")
	}
	return families, nil
}

// familyFor resolves the family a sample belongs to: exact name match,
// the current family when the name is current's name plus a histogram
// or counter suffix, or any declared family the suffix strips back to.
func familyFor(families map[string]*ParsedFamily, current *ParsedFamily, sample string) *ParsedFamily {
	if f, ok := families[sample]; ok {
		return f
	}
	for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if f, ok := families[base]; ok {
			return f
		}
	}
	_ = current
	return nil
}

// parseSampleLine splits `name{labels} value` (labels optional).
func parseSampleLine(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("sample %q has an empty name", line)
	}
	rest = strings.TrimLeft(rest, " \t")
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				if inQuote {
					i++
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = i
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimLeft(rest[end+1:], " \t")
	}
	val := strings.Fields(rest)
	if len(val) == 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := parseValue(val[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v
	// A trailing field, when present, is the OpenMetrics timestamp;
	// WriteOpenMetrics never emits one and the parser ignores it.
	return s, nil
}

func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(tok, 64)
}

// parseLabels splits `k1="v1",k2="v2"`.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label %q has no '='", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label %q value is not quoted", key)
		}
		var val strings.Builder
		i := 1
		closed := false
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					return nil, fmt.Errorf("unsupported escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		out[key] = val.String()
		s = strings.TrimSpace(s[i+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// HistogramSamples extracts (upper bound, cumulative count) pairs from
// a parsed histogram family's _bucket samples, sorted by bound. No
// program path calls it: the round-trip tests compare it against
// Histogram.Buckets().
func (f *ParsedFamily) HistogramSamples() []BucketCount {
	var out []BucketCount
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		le, ok := s.Labels["le"]
		if !ok {
			continue
		}
		bound, err := parseValue(le)
		if err != nil {
			continue
		}
		out = append(out, BucketCount{Upper: bound, Count: int64(s.Value)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Upper < out[j].Upper })
	return out
}
