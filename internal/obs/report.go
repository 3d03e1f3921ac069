package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Schema identifies the JSON layout of one Report. Bump the version suffix
// on any incompatible change; the golden test in report_test.go pins the
// current layout.
const Schema = "pardetect.obs/v1"

// RunSetSchema identifies the JSON layout of a RunSet (a collection of
// Reports, e.g. one per Table III app).
const RunSetSchema = "pardetect.obs.runset/v1"

// Report is the machine-readable export of one observed run: the span tree,
// the counters and the decision log. This is the schema behind
// `pardetect -stats-json` and `benchtab -stats-out`.
type Report struct {
	Schema   string       `json:"schema"`
	Label    string       `json:"label,omitempty"`
	WallNS   int64        `json:"wall_ns"`
	Spans    []SpanReport `json:"spans,omitempty"`
	Counters Counters     `json:"counters"`
	Decide   []Decision   `json:"decisions,omitempty"`
}

// Counters is a name → value map serialised with sorted keys (encoding/json
// sorts map keys, keeping the export deterministic).
type Counters map[string]int64

// SpanReport is one node of the exported span tree.
type SpanReport struct {
	Name       string       `json:"name"`
	NS         int64        `json:"ns"`
	AllocBytes int64        `json:"alloc_bytes"`
	Children   []SpanReport `json:"children,omitempty"`
}

// RunSet bundles the reports of several runs into one export file.
type RunSet struct {
	Schema string   `json:"schema"`
	Runs   []Report `json:"runs"`
}

// Snapshot exports the observer's current state. It is safe to call on a nil
// observer (yielding an empty schema-stamped report) and while spans are
// still open (open spans report the time elapsed so far).
func (o *Observer) Snapshot() Report {
	r := Report{Schema: Schema, Counters: Counters{}}
	if o == nil {
		return r
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.Label = o.label
	r.WallNS = time.Since(o.created).Nanoseconds()
	for _, s := range o.roots {
		r.Spans = append(r.Spans, exportSpan(s))
	}
	for k, v := range o.counters {
		r.Counters[k] = v
	}
	r.Decide = append([]Decision(nil), o.decisions...)
	return r
}

func exportSpan(s *Span) SpanReport {
	out := SpanReport{Name: s.name, NS: s.dur.Nanoseconds(), AllocBytes: s.alloc}
	if !s.ended {
		out.NS = time.Since(s.start).Nanoseconds()
	}
	for _, c := range s.children {
		out.Children = append(out.Children, exportSpan(c))
	}
	return out
}

// JSON renders the report as indented JSON with a trailing newline.
func (r Report) JSON() ([]byte, error) { return marshalIndent(r) }

// JSON renders the run set as indented JSON with a trailing newline.
func (rs RunSet) JSON() ([]byte, error) { return marshalIndent(rs) }

// marshalIndent is json.MarshalIndent without HTML escaping, so candidate
// names like "f.L1->f.L2" stay readable in the export.
func marshalIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Text renders the report for humans: the span tree with wall time and
// allocation deltas, the counter table and the decision log. The layout is
// pinned by a golden test.
func (r Report) Text() string {
	var sb strings.Builder
	label := r.Label
	if label == "" {
		label = "(unlabelled)"
	}
	fmt.Fprintf(&sb, "=== telemetry: %s ===\n", label)
	if len(r.Spans) > 0 {
		sb.WriteString("phase spans (wall time, allocated bytes):\n")
		for _, s := range r.Spans {
			writeSpan(&sb, s, 1)
		}
	}
	if len(r.Counters) > 0 {
		sb.WriteString("counters:\n")
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %-34s %12d\n", k, r.Counters[k])
		}
	}
	if len(r.Decide) > 0 {
		sb.WriteString("decision log:\n")
		for _, d := range r.Decide {
			verdict := "rejected"
			if d.Accepted {
				verdict = "accepted"
			}
			fmt.Fprintf(&sb, "  [%-9s] %-34s %-8s %-26s %s\n", d.Stage, d.Candidate, verdict, d.Code, d.Detail)
		}
	}
	return sb.String()
}

func writeSpan(sb *strings.Builder, s SpanReport, depth int) {
	indent := strings.Repeat("  ", depth)
	name := indent + s.Name
	fmt.Fprintf(sb, "%-36s %12s %12s\n", name, formatNS(s.NS), formatBytes(s.AllocBytes))
	for _, c := range s.Children {
		writeSpan(sb, c, depth+1)
	}
}

// formatNS renders a duration with three significant decimals in the most
// natural unit, keeping columns aligned.
func formatNS(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.3fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.3fms", float64(ns)/float64(time.Millisecond))
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.3fµs", float64(ns)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
