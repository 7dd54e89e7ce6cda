package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4). Histograms emit the classic cumulative
// _bucket/_sum/_count triplet plus three derived gauge families
// (<name>_p50/_p90/_p99) so collectors that cannot run histogram_quantile —
// and humans curling /metrics — still see the percentiles directly.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders the same families with OpenMetrics extensions:
// histogram bucket lines carry trace-ID exemplars (` # {trace_id="…"} value
// timestamp`) and the output ends with the `# EOF` marker. /metrics serves
// this when the scraper negotiates `Accept: application/openmetrics-text`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

func (r *Registry) write(w io.Writer, exemplars bool) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range families {
		if err := writeFamily(bw, f, exemplars); err != nil {
			return err
		}
	}
	if exemplars {
		fmt.Fprintln(bw, "# EOF")
	}
	return bw.Flush()
}

func writeFamily(w *bufio.Writer, f *family, exemplars bool) error {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	sers := make([]*series, len(keys))
	fns := make([]func() float64, len(keys))
	for i, k := range keys {
		sers[i] = f.series[k]
		fns[i] = f.series[k].gaugeFn // copied under the lock: FuncVec may swap it
	}
	f.mu.RUnlock()
	if len(sers) == 0 {
		return nil
	}
	header(w, f.name, f.help, f.kind.String())
	var quantileRows []struct {
		labels string
		q      Quantiles
	}
	for si, s := range sers {
		labels := formatLabels(f.labelNames, s.labelValues)
		switch f.kind {
		case kindCounter:
			v := 0.0
			switch {
			case fns[si] != nil: // scrape-time-computed counter (CounterFunc*)
				v = fns[si]()
			case s.counter != nil:
				v = s.counter.Value()
			}
			sample(w, f.name, labels, v)
		case kindGauge:
			v := 0.0
			if fns[si] != nil {
				v = fns[si]()
			}
			sample(w, f.name, labels, v)
		case kindHistogram:
			snap := s.hist.Snapshot()
			cum := uint64(0)
			for i, n := range snap.Buckets {
				cum += n
				le := "+Inf"
				if i < len(snap.Bounds) {
					le = formatFloat(snap.Bounds[i])
				}
				if exemplars && snap.Exemplars[i] != nil {
					ex := snap.Exemplars[i]
					fmt.Fprintf(w, "%s%s %s # {trace_id=\"%s\"} %s %.3f\n",
						f.name+"_bucket", addLabel(labels, "le", le), formatFloat(float64(cum)),
						escapeLabelValue(ex.TraceID), formatFloat(ex.Value),
						float64(ex.Time.UnixNano())/1e9)
				} else {
					sample(w, f.name+"_bucket", addLabel(labels, "le", le), float64(cum))
				}
			}
			sample(w, f.name+"_sum", labels, snap.Sum)
			sample(w, f.name+"_count", labels, float64(snap.Count))
			quantileRows = append(quantileRows, struct {
				labels string
				q      Quantiles
			}{labels, Quantiles{Count: snap.Count, Sum: snap.Sum,
				P50: snap.Quantile(0.50), P90: snap.Quantile(0.90), P99: snap.Quantile(0.99)}})
		}
	}
	for _, suffix := range []struct {
		name string
		get  func(Quantiles) float64
	}{
		{"_p50", func(q Quantiles) float64 { return q.P50 }},
		{"_p90", func(q Quantiles) float64 { return q.P90 }},
		{"_p99", func(q Quantiles) float64 { return q.P99 }},
	} {
		if len(quantileRows) == 0 {
			break
		}
		header(w, f.name+suffix.name, f.help+" ("+suffix.name[1:]+" estimate)", "gauge")
		for _, row := range quantileRows {
			sample(w, f.name+suffix.name, row.labels, suffix.get(row.q))
		}
	}
	return nil
}

func header(w *bufio.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func sample(w *bufio.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(v))
}

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

// formatLabels renders {k="v",...} or "" when there are no labels.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel appends one label pair to an already formatted label set.
func addLabel(labels, name, value string) string {
	pair := name + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// ParseExposition validates Prometheus text exposition format and returns the
// number of samples read. It checks comment syntax, metric/label name
// validity, label quoting and escapes, float-parsable values, that every
// sample belongs to a family declared by a preceding # TYPE line (accounting
// for the _bucket/_sum/_count suffixes of histograms and _count/quantile of
// summaries), and that histogram _bucket series are cumulative in le order.
// OpenMetrics extensions are validated too: a `# EOF` marker must be the last
// content, and bucket-line exemplars must carry a well-formed label set with
// a valid trace_id, a float value no greater than the bucket's le bound, and
// a float timestamp. Exemplars anywhere but a histogram bucket are rejected.
// `loadgen -scrape` and the obs tests both gate /metrics output through it.
func ParseExposition(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{}
	samples := 0
	lineNo := 0
	sawEOF := false
	var lastBucketSeries string
	var lastBucketCum float64
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if sawEOF {
			return samples, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if strings.TrimRight(line, " ") == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return samples, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "HELP":
				if !validMetricName(fields[2]) {
					return samples, fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, fields[2])
				}
			case "TYPE":
				if len(fields) != 4 {
					return samples, fmt.Errorf("line %d: TYPE needs a metric name and a type", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return samples, fmt.Errorf("line %d: invalid metric name %q in TYPE", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return samples, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
			default:
				// Other comments are allowed and ignored.
			}
			continue
		}
		name, labels, value, ex, err := parseSample(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam, ok := resolveFamily(types, name)
		if !ok {
			return samples, fmt.Errorf("line %d: sample %q has no preceding # TYPE declaration", lineNo, name)
		}
		isBucket := strings.HasSuffix(name, "_bucket") && types[fam] == "histogram"
		if ex != nil {
			if !isBucket {
				return samples, fmt.Errorf("line %d: exemplar on non-bucket sample %q", lineNo, name)
			}
			if err := verifyExemplar(ex, labels["le"]); err != nil {
				return samples, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		if isBucket {
			series := fam + "|" + labelsWithout(labels, "le")
			if series == lastBucketSeries && value < lastBucketCum {
				return samples, fmt.Errorf("line %d: histogram %s buckets not cumulative", lineNo, fam)
			}
			lastBucketSeries, lastBucketCum = series, value
		} else {
			lastBucketSeries = ""
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples in exposition")
	}
	return samples, nil
}

// resolveFamily maps a sample name to its declared family, unfolding the
// histogram/summary suffixes.
func resolveFamily(types map[string]string, name string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
			return base, true
		}
	}
	return "", false
}

// exemplarSample is a parsed OpenMetrics exemplar suffix on a bucket line.
type exemplarSample struct {
	labels map[string]string
	value  float64
}

// parseSample splits `name{labels} value [timestamp] [# {exlabels} exvalue
// [extimestamp]]`, validating each part. The exemplar suffix, when present,
// is returned for the caller to verify in family context.
func parseSample(line string) (name string, labels map[string]string, value float64, ex *exemplarSample, err error) {
	labels = map[string]string{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, nil, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		body, tail, err := splitLabelSet(rest)
		if err != nil {
			return "", nil, 0, nil, err
		}
		if err := parseLabels(body, labels); err != nil {
			return "", nil, 0, nil, err
		}
		rest = tail
	}
	// Label values were consumed above, so a " # " in rest can only be the
	// exemplar separator.
	if sep := strings.Index(rest, " # "); sep >= 0 {
		ex = &exemplarSample{labels: map[string]string{}}
		exRaw := strings.TrimSpace(rest[sep+3:])
		rest = rest[:sep]
		if !strings.HasPrefix(exRaw, "{") {
			return "", nil, 0, nil, fmt.Errorf("exemplar missing label set in %q", exRaw)
		}
		body, tail, err := splitLabelSet(exRaw)
		if err != nil {
			return "", nil, 0, nil, fmt.Errorf("exemplar: %v", err)
		}
		if err := parseLabels(body, ex.labels); err != nil {
			return "", nil, 0, nil, fmt.Errorf("exemplar: %v", err)
		}
		exFields := strings.Fields(tail)
		if len(exFields) < 1 || len(exFields) > 2 {
			return "", nil, 0, nil, fmt.Errorf("exemplar expected value [timestamp], got %q", tail)
		}
		ex.value, err = strconv.ParseFloat(exFields[0], 64)
		if err != nil {
			return "", nil, 0, nil, fmt.Errorf("bad exemplar value %q", exFields[0])
		}
		if len(exFields) == 2 {
			if _, err := strconv.ParseFloat(exFields[1], 64); err != nil {
				return "", nil, 0, nil, fmt.Errorf("bad exemplar timestamp %q", exFields[1])
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, nil, fmt.Errorf("expected value [timestamp], got %q", rest)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, nil, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, nil, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, ex, nil
}

// splitLabelSet consumes a leading quote-aware `{...}` block, returning the
// body between the braces and everything after the closing brace.
func splitLabelSet(s string) (body, tail string, err error) {
	end := -1
	inQuote := false
	for j := 1; j < len(s); j++ {
		switch {
		case inQuote && s[j] == '\\':
			j++
		case s[j] == '"':
			inQuote = !inQuote
		case !inQuote && s[j] == '}':
			end = j
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return "", "", fmt.Errorf("unterminated label set")
	}
	return s[1:end], s[end+1:], nil
}

// verifyExemplar checks the semantic constraints on a bucket exemplar: a
// valid trace_id label and a value that actually belongs in the bucket
// (value <= le).
func verifyExemplar(ex *exemplarSample, le string) error {
	id, ok := ex.labels["trace_id"]
	if !ok {
		return fmt.Errorf("exemplar missing trace_id label")
	}
	if !ValidTraceID(id) {
		return fmt.Errorf("exemplar trace_id %q is not a valid trace ID", id)
	}
	bound, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return fmt.Errorf("bucket with exemplar has unparsable le %q", le)
	}
	if ex.value > bound {
		return fmt.Errorf("exemplar value %v exceeds bucket le %v", ex.value, bound)
	}
	return nil
}

func parseLabels(s string, out map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label pair missing '=' in %q", s)
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return fmt.Errorf("label %s value not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %s", lname)
				}
				i++
				switch s[i] {
				case '\\', '"':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label %s", s[i], lname)
				}
				continue
			}
			if c == '"' {
				closed = true
				s = s[i+1:]
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return fmt.Errorf("unterminated value for label %s", lname)
		}
		if _, dup := out[lname]; dup {
			return fmt.Errorf("duplicate label %s", lname)
		}
		out[lname] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

// labelsWithout renders labels minus one key, sorted, for series identity.
func labelsWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	// Insertion sort: label sets are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}
