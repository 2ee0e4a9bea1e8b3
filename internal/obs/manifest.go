package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// SchemaV1 identifies the manifest line format written by this package.
const SchemaV1 = "gpluscircles/manifest/v1"

// Meta is the run header of a manifest: what produced it and under which
// options, so a recorded run is reproducible from its manifest alone.
type Meta struct {
	// Schema is SchemaV1; readers reject unknown schemas.
	Schema string `json:"schema"`
	// Tool names the producing binary (e.g. "circlebench").
	Tool string `json:"tool"`
	// Git is `git describe --always --dirty` of the producing tree,
	// empty when unavailable.
	Git string `json:"git,omitempty"`
	// Start is the run's wall-clock start in RFC 3339 form. Informational
	// only — nothing downstream branches on it.
	Start string `json:"start,omitempty"`
	// Seed is the deterministic seed the run used.
	Seed int64 `json:"seed"`
	// Options records the remaining knobs (scale, workers, ...) as
	// rendered strings.
	Options map[string]string `json:"options,omitempty"`
	// Partial marks a run that was cancelled or failed before
	// completing; Err carries the reason.
	Partial bool   `json:"partial,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Manifest is one fully parsed run manifest: header, finished spans in
// completion order, and the final metric snapshot.
type Manifest struct {
	Meta    Meta
	Spans   []SpanRecord
	Metrics Snapshot
}

// Manifest collects the recorder's state into a Manifest under the given
// meta. The schema field is filled in. A nil Recorder yields a manifest
// with no spans or metrics (still valid and writable — a disabled run
// records that it recorded nothing).
func (r *Recorder) Manifest(meta Meta) *Manifest {
	meta.Schema = SchemaV1
	return &Manifest{
		Meta:    meta,
		Spans:   r.Spans(),
		Metrics: r.Snapshot(),
	}
}

// manifestLine is the JSONL envelope: every line carries a type tag and
// exactly one payload field.
type manifestLine struct {
	Type    string      `json:"type"`
	Meta    *Meta       `json:"meta,omitempty"`
	Span    *SpanRecord `json:"span,omitempty"`
	Metrics *Snapshot   `json:"metrics,omitempty"`
}

// WriteManifest emits the manifest as JSONL: a meta line, one line per
// span, and a closing metrics line. Every line is a self-contained JSON
// object, so a truncated file still yields its prefix of spans.
func WriteManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := m.Meta
	if meta.Schema == "" {
		meta.Schema = SchemaV1
	}
	if err := enc.Encode(manifestLine{Type: "meta", Meta: &meta}); err != nil {
		return fmt.Errorf("obs: write manifest meta: %w", err)
	}
	for i := range m.Spans {
		if err := enc.Encode(manifestLine{Type: "span", Span: &m.Spans[i]}); err != nil {
			return fmt.Errorf("obs: write manifest span: %w", err)
		}
	}
	if err := enc.Encode(manifestLine{Type: "metrics", Metrics: &m.Metrics}); err != nil {
		return fmt.Errorf("obs: write manifest metrics: %w", err)
	}
	return bw.Flush()
}

// ErrManifestSchema is returned when a manifest's first line is missing
// or declares an unknown schema.
var ErrManifestSchema = errors.New("obs: not a recognized manifest")

// ReadManifest parses a JSONL manifest written by WriteManifest. The
// first line must be a meta line with a known schema; unknown line types
// are rejected. A manifest without a metrics line (a hard-killed run)
// parses with a zero Snapshot.
func ReadManifest(r io.Reader) (*Manifest, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	m := &Manifest{}
	first := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line manifestLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("obs: manifest line %d: %w", lineNo, err)
		}
		if first {
			if line.Type != "meta" || line.Meta == nil {
				return nil, fmt.Errorf("%w: first line is %q, want meta", ErrManifestSchema, line.Type)
			}
			if line.Meta.Schema != SchemaV1 {
				return nil, fmt.Errorf("%w: schema %q", ErrManifestSchema, line.Meta.Schema)
			}
			m.Meta = *line.Meta
			first = false
			continue
		}
		switch line.Type {
		case "span":
			if line.Span == nil {
				return nil, fmt.Errorf("obs: manifest line %d: span line without span payload", lineNo)
			}
			m.Spans = append(m.Spans, *line.Span)
		case "metrics":
			if line.Metrics == nil {
				return nil, fmt.Errorf("obs: manifest line %d: metrics line without metrics payload", lineNo)
			}
			m.Metrics = *line.Metrics
		case "meta":
			return nil, fmt.Errorf("obs: manifest line %d: duplicate meta line", lineNo)
		default:
			return nil, fmt.Errorf("obs: manifest line %d: unknown line type %q", lineNo, line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read manifest: %w", err)
	}
	if first {
		return nil, fmt.Errorf("%w: empty input", ErrManifestSchema)
	}
	return m, nil
}

// SpansNamed returns the manifest's spans with the given name, in
// completion order.
func (m *Manifest) SpansNamed(name string) []SpanRecord {
	var out []SpanRecord
	for _, sp := range m.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}
