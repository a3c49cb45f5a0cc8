package telem

// The flight recorder: a bounded in-memory ring of recent per-request
// context (phase spans, decision-log tail, cache/queue deltas). When a
// request ends badly — slow, 5xx, 429 — or an operator asks via
// POST /v1/debug/snapshot, the ring is frozen into a postmortem bundle:
// one self-contained, schema-versioned JSON file holding the triggering
// request, the recent-request ring, a full metrics snapshot, the
// server's debug state and a Perfetto-loadable trace fragment rebuilt
// from the recorded spans. Everything needed to reconstruct "what was
// the server doing when this went wrong", without ssh'ing into a box
// that may already have been recycled.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scaffold-go/multisimd/internal/obs"
	"github.com/scaffold-go/multisimd/internal/recfile"
)

// RequestRecord is one flight-recorder entry: what one request did,
// in the access log's vocabulary, plus the raw spans and decision tail
// the log line only aggregates.
type RequestRecord struct {
	ID       string  `json:"id"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	Time     string  `json:"ts"`
	DurMS    float64 `json:"dur_ms"`
	Role     string  `json:"role,omitempty"`

	QueueWaitMS float64          `json:"queue_wait_ms,omitempty"`
	EvalMS      float64          `json:"eval_ms,omitempty"`
	Cache       *obs.AccessCache `json:"cache,omitempty"`
	Err         string           `json:"error,omitempty"`

	// Phases is the per-phase aggregation the access log carries;
	// Spans are the completed spans it was folded from. Decisions is
	// the tail of the evaluation's scheduler decision log.
	Phases    []obs.PhaseSummary `json:"phases,omitempty"`
	Spans     []obs.SpanEvent    `json:"spans,omitempty"`
	Decisions []obs.Decision     `json:"decisions,omitempty"`
}

// FlightRecorder keeps the most recent request records in a bounded
// ring. A nil *FlightRecorder is disabled: Record no-ops without
// allocating, Recent returns nil. Safe for concurrent use.
type FlightRecorder struct {
	mu      sync.Mutex
	entries []RequestRecord
	max     int
	total   int64
}

// DefaultFlightRecords is the default ring capacity.
const DefaultFlightRecords = 64

// NewFlightRecorder returns a recorder keeping the last max records
// (<= 0: DefaultFlightRecords).
func NewFlightRecorder(max int) *FlightRecorder {
	if max <= 0 {
		max = DefaultFlightRecords
	}
	return &FlightRecorder{max: max}
}

// Record appends one request record, evicting the oldest past the cap.
func (r *FlightRecorder) Record(rec RequestRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.entries = append(r.entries, rec)
	if len(r.entries) > r.max {
		r.entries = r.entries[len(r.entries)-r.max:]
	}
	r.total++
	r.mu.Unlock()
}

// Recent copies the ring, oldest first.
func (r *FlightRecorder) Recent() []RequestRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestRecord, len(r.entries))
	copy(out, r.entries)
	return out
}

// Len reports how many records the ring currently holds.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Total reports how many records were ever recorded (evicted included).
func (r *FlightRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// BundleSchemaVersion versions the postmortem bundle contract.
const BundleSchemaVersion = 1

// TraceEvent is one Chrome trace-event record of a bundle's trace
// fragment (the exported sibling of obs's internal event type).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFragment is a Perfetto-loadable trace: extracted on its own it
// opens directly in ui.perfetto.dev or chrome://tracing. Each recorded
// request renders as one process (pid), its worker spans as threads.
type TraceFragment struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// Bundle is one postmortem artifact.
type Bundle struct {
	Schema  int    `json:"schema"`
	Service string `json:"service"`
	// Trigger says why the bundle exists: "slow", "error", "overloaded"
	// (automatic) or "manual" (POST /v1/debug/snapshot).
	Trigger string `json:"trigger"`
	Time    string `json:"ts"`
	// RequestID is the triggering request's id (the snapshot request's
	// own id on manual bundles).
	RequestID string `json:"request_id,omitempty"`
	// Request is the triggering request's record (automatic bundles).
	Request *RequestRecord `json:"request,omitempty"`
	// Recent is the flight-recorder ring at trigger time, oldest first.
	Recent []RequestRecord `json:"recent,omitempty"`
	// Metrics is the full registry snapshot at trigger time.
	Metrics obs.Snapshot `json:"metrics"`
	// State is the server's debug-state snapshot, embedded verbatim so
	// the bundle does not chase the server's schema.
	State json.RawMessage `json:"state,omitempty"`
	// Trace is the Perfetto fragment rebuilt from every recorded span.
	Trace TraceFragment `json:"trace"`
}

// BuildBundle assembles a bundle. req, when non-nil, is the triggering
// request: it renders as pid 1 of the trace fragment, ahead of the ring
// (which skips its duplicate). requestID overrides req's id when req is
// nil (manual snapshots).
func BuildBundle(service, trigger, ts, requestID string, req *RequestRecord, recent []RequestRecord, metrics obs.Snapshot, state json.RawMessage) Bundle {
	b := Bundle{
		Schema:    BundleSchemaVersion,
		Service:   service,
		Trigger:   trigger,
		Time:      ts,
		RequestID: requestID,
		Request:   req,
		Recent:    recent,
		Metrics:   metrics,
		State:     state,
	}
	if req != nil {
		b.RequestID = req.ID
	}
	b.Trace = buildTrace(req, recent)
	return b
}

// buildTrace renders the recorded spans as one trace-viewer process per
// request: a process_name metadata event carrying the request id, then
// the spans on their original worker tids. The triggering request is
// always pid 1.
func buildTrace(req *RequestRecord, recent []RequestRecord) TraceFragment {
	tf := TraceFragment{DisplayTimeUnit: "ms"}
	pid := int64(1)
	add := func(r *RequestRecord) {
		tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": r.Endpoint, "request_id": r.ID},
		})
		for _, e := range r.Spans {
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: e.Name, Cat: e.Cat, Ph: "X",
				TS: e.TSUS, Dur: e.DurUS, PID: pid, TID: e.TID,
			})
		}
		pid++
	}
	if req != nil {
		add(req)
	}
	for i := range recent {
		r := &recent[i]
		if req != nil && r.ID == req.ID && r.Time == req.Time {
			continue
		}
		add(r)
	}
	return tf
}

// RequestEvents extracts one request's completed spans back out of the
// trace fragment (resolving its pid via the process_name metadata), in
// the shape obs.AggregatePhases folds — the replay path a test runs to
// prove the bundle carries exactly the aggregation the access log
// showed.
func (b Bundle) RequestEvents(id string) []obs.SpanEvent {
	pid := int64(-1)
	for _, e := range b.Trace.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			if got, _ := e.Args["request_id"].(string); got == id {
				pid = e.PID
				break
			}
		}
	}
	if pid < 0 {
		return nil
	}
	var out []obs.SpanEvent
	for _, e := range b.Trace.TraceEvents {
		if e.Ph != "X" || e.PID != pid {
			continue
		}
		out = append(out, obs.SpanEvent{Cat: e.Cat, Name: e.Name, TSUS: e.TS, DurUS: e.Dur, TID: e.TID})
	}
	return out
}

// MaxBundles bounds how many postmortem bundles a directory keeps;
// writing past it prunes oldest-first (file names sort by write time).
const MaxBundles = 32

// bundleSeq disambiguates bundles written within one millisecond.
var bundleSeq atomic.Int64

// WriteBundle writes b into dir (created if missing) atomically and
// prunes the directory to MaxBundles, returning the bundle's path.
func WriteBundle(dir string, b Bundle, now time.Time) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telem: %w", err)
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return "", fmt.Errorf("telem: %w", err)
	}
	data = append(data, '\n')
	name := fmt.Sprintf("pm-%016x-%04x-%s.json", uint64(now.UnixMilli()), uint64(bundleSeq.Add(1))&0xffff, b.Trigger)
	path := filepath.Join(dir, name)
	if err := recfile.WriteAtomic(path, data); err != nil {
		return "", fmt.Errorf("telem: %w", err)
	}
	pruneBundles(dir)
	return path, nil
}

// pruneBundles drops the oldest bundles past MaxBundles. Best-effort.
func pruneBundles(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "pm-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	if len(names) <= MaxBundles {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-MaxBundles] {
		os.Remove(filepath.Join(dir, n))
	}
}

// ReadBundle loads a bundle back (tests, tooling).
func ReadBundle(path string) (Bundle, error) {
	var b Bundle
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("telem: bundle %s: %w", filepath.Base(path), err)
	}
	if b.Schema != BundleSchemaVersion {
		return b, fmt.Errorf("telem: bundle schema %d, this build reads %d", b.Schema, BundleSchemaVersion)
	}
	return b, nil
}
