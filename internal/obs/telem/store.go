package telem

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/scaffold-go/multisimd/internal/recfile"
)

// maxDownsampleLevel bounds how coarse a budget-squeezed segment can
// get: level 6 is one sample per Step*64 window (~2 minutes at the
// default 2s cadence) — past that the segment is cheaper to drop than
// to keep blurring.
const maxDownsampleLevel = 6

// Point is one range-query result point. TSMS is the sample (or, under
// a step, the epoch-aligned bucket) timestamp in unix milliseconds.
type Point struct {
	TSMS int64   `json:"ts_ms"`
	V    float64 `json:"v"`
}

// Stats is a point-in-time store snapshot.
type Stats struct {
	Segments        int   `json:"segments"`
	Bytes           int64 `json:"bytes"`
	BufferedSamples int   `json:"buffered_samples"`
	Series          int   `json:"series"`
	Sealed          int64 `json:"sealed"`
	Downsampled     int64 `json:"downsampled"`
	DroppedAge      int64 `json:"dropped_age"`    // segments dropped by Retention
	DroppedBudget   int64 `json:"dropped_budget"` // segments dropped by MaxBytes
	Corrupt         int64 `json:"corrupt"`        // segments quarantined
}

// segMeta indexes one sealed segment without holding its samples.
type segMeta struct {
	path         string
	fromMS, toMS int64
	seq          int64
	ds           int
	size         int64
}

// Store is the embedded time-series store. Safe for concurrent use; a
// nil *Store is the disabled store (Append, Query, Series and Close all
// no-op without allocating), so telemetry-off paths cost one nil check.
type Store struct {
	opts Options

	mu     sync.Mutex
	active []Sample
	segs   []segMeta // sorted by (fromMS, seq)
	names  map[string]struct{}
	seq    int64

	sealed, downsampled, droppedAge, droppedBudget, corrupt int64
}

// Open opens (and creates) a store rooted at opts.Dir, indexing the
// sealed segments already there: every segment is read and validated up
// front, corrupt ones are quarantined, leftover temp files from a
// crashed writer are removed, and retention is enforced immediately so
// a long-stopped daemon does not come back serving expired history.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("telem: Dir is required")
	}
	s := &Store{opts: opts, names: map[string]struct{}{}}
	for _, d := range []string{s.segmentsDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("telem: %w", err)
		}
	}
	ents, err := recfile.Sweep(s.segmentsDir())
	if err != nil {
		return nil, fmt.Errorf("telem: %w", err)
	}
	for _, e := range ents {
		m, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		m.path = filepath.Join(s.segmentsDir(), e.Name())
		p, size, err := readSegmentFile(m.path)
		if err != nil {
			s.corrupt++
			s.quarantine(m.path)
			continue
		}
		m.size = size
		m.ds = p.DS
		if n := len(p.Samples); n > 0 {
			m.fromMS, m.toMS = p.Samples[0].TSMS, p.Samples[n-1].TSMS
		}
		for _, sm := range p.Samples {
			for k := range sm.Values {
				s.names[k] = struct{}{}
			}
		}
		if m.seq >= s.seq {
			s.seq = m.seq + 1
		}
		s.segs = append(s.segs, m)
	}
	sort.Slice(s.segs, func(i, j int) bool {
		if s.segs[i].fromMS != s.segs[j].fromMS {
			return s.segs[i].fromMS < s.segs[j].fromMS
		}
		return s.segs[i].seq < s.segs[j].seq
	})
	s.mu.Lock()
	s.maintainLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) segmentsDir() string   { return filepath.Join(s.opts.Dir, "segments") }
func (s *Store) quarantineDir() string { return filepath.Join(s.opts.Dir, "quarantine") }

// Dir returns the store root (postmortem bundles are written under it).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.opts.Dir
}

// Retention returns the effective retention window.
func (s *Store) Retention() time.Duration {
	if s == nil {
		return 0
	}
	return s.opts.retention()
}

// segmentName renders a sealed segment's file name; parseSegmentName
// inverts it. Sorting by name sorts by (fromMS, seq).
func segmentName(fromMS, seq int64, ds int) string {
	return fmt.Sprintf("seg-%016x-%08x-ds%d.tseg", uint64(fromMS), uint64(seq), ds)
}

func parseSegmentName(name string) (segMeta, bool) {
	var m segMeta
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".tseg") {
		return m, false
	}
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".tseg"), "-")
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "ds") {
		return m, false
	}
	from, err1 := strconv.ParseUint(parts[0], 16, 64)
	seq, err2 := strconv.ParseUint(parts[1], 16, 64)
	ds, err3 := strconv.Atoi(strings.TrimPrefix(parts[2], "ds"))
	if err1 != nil || err2 != nil || err3 != nil {
		return m, false
	}
	m.fromMS, m.seq, m.ds = int64(from), int64(seq), ds
	return m, true
}

func readSegmentFile(path string) (segmentPayload, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentPayload{}, 0, err
	}
	p, err := decodeSegment(data)
	return p, int64(len(data)), err
}

// quarantine moves a failed segment aside for postmortem.
func (s *Store) quarantine(path string) {
	recfile.Quarantine(path, filepath.Join(s.quarantineDir(), filepath.Base(path)+".bad"))
}

// dropCorruptLocked quarantines sealed segment i after it failed
// validation and removes it from the index. Caller holds s.mu.
func (s *Store) dropCorruptLocked(i int) {
	s.corrupt++
	s.quarantine(s.segs[i].path)
	s.segs = append(s.segs[:i], s.segs[i+1:]...)
}

// Append buffers one sample (values must not be mutated by the caller
// afterwards — Flatten builds a fresh map). Every SealSamples appends,
// the buffer seals into an immutable segment and retention runs. A nil
// store, or an empty sample, is a no-op.
func (s *Store) Append(t time.Time, values map[string]float64) {
	if s == nil || len(values) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range values {
		if _, ok := s.names[k]; !ok {
			s.names[k] = struct{}{}
		}
	}
	s.active = append(s.active, Sample{TSMS: t.UnixMilli(), Values: values})
	if len(s.active) >= s.opts.sealSamples() {
		s.sealLocked()
	}
}

// Seal forces the buffered tail into a segment (Close calls it; the
// daemon's SIGTERM path therefore persists everything).
func (s *Store) Seal() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
}

// Close seals the buffered tail. The store holds no open files between
// calls, so Close never fails.
func (s *Store) Close() {
	s.Seal()
}

func (s *Store) sealLocked() {
	if len(s.active) == 0 {
		return
	}
	payload := segmentPayload{Schema: SegmentSchemaVersion, Samples: s.active}
	m := segMeta{
		fromMS: s.active[0].TSMS,
		toMS:   s.active[len(s.active)-1].TSMS,
		seq:    s.seq,
	}
	m.path = filepath.Join(s.segmentsDir(), segmentName(m.fromMS, m.seq, 0))
	size, err := s.writeSegment(m.path, payload)
	if err != nil {
		// A failed seal only costs history; drop the buffer so memory
		// stays bounded even on a dead disk.
		s.active = nil
		return
	}
	m.size = size
	s.seq++
	s.segs = append(s.segs, m)
	s.sealed++
	s.active = nil
	s.maintainLocked()
}

// writeSegment writes one framed segment atomically.
func (s *Store) writeSegment(path string, p segmentPayload) (int64, error) {
	data, err := encodeSegment(p)
	if err != nil {
		return 0, err
	}
	if err := recfile.WriteAtomic(path, data); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// maintainLocked enforces retention then the byte budget: expired
// segments are dropped; past MaxBytes the oldest segments are first
// rewritten one downsampling level coarser (halving their resolution,
// step-aligned) and, when every survivor is already at the coarsest
// level, dropped oldest-first. A segment failing validation on the way
// is quarantined and leaves the index. Caller holds s.mu.
func (s *Store) maintainLocked() {
	if ret := s.opts.retention(); ret > 0 {
		cutoff := s.opts.now().Add(-ret).UnixMilli()
		kept := s.segs[:0]
		for _, m := range s.segs {
			if m.toMS < cutoff {
				os.Remove(m.path)
				s.droppedAge++
				continue
			}
			kept = append(kept, m)
		}
		s.segs = kept
	}
	if s.opts.MaxBytes <= 0 {
		return
	}
	total := int64(0)
	for _, m := range s.segs {
		total += m.size
	}
	for i := 0; total > s.opts.MaxBytes && i < len(s.segs); i++ {
		if s.segs[i].ds >= maxDownsampleLevel {
			continue
		}
		delta, err := s.downsampleLocked(&s.segs[i])
		if err != nil {
			total -= s.segs[i].size
			s.dropCorruptLocked(i)
			i--
			continue
		}
		total += delta
	}
	for total > s.opts.MaxBytes && len(s.segs) > 0 {
		os.Remove(s.segs[0].path)
		total -= s.segs[0].size
		s.segs = s.segs[1:]
		s.droppedBudget++
	}
}

// downsampleLocked rewrites one segment a level coarser, keeping the
// last sample in each epoch-aligned Step<<(ds+1) window, and returns
// the byte delta. A segment failing validation returns the error for
// the caller to drop; on a failed rewrite the segment is left as it was.
func (s *Store) downsampleLocked(m *segMeta) (int64, error) {
	p, _, err := readSegmentFile(m.path)
	if err != nil {
		return 0, err
	}
	newDS := m.ds + 1
	bucketMS := s.opts.step().Milliseconds() << newDS
	if bucketMS <= 0 {
		return 0, nil
	}
	kept := make([]Sample, 0, len(p.Samples)/2+1)
	for _, sm := range p.Samples {
		b := sm.TSMS / bucketMS
		if n := len(kept); n > 0 && kept[n-1].TSMS/bucketMS == b {
			kept[n-1] = sm
			continue
		}
		kept = append(kept, sm)
	}
	newPath := filepath.Join(s.segmentsDir(), segmentName(m.fromMS, m.seq, newDS))
	size, err := s.writeSegment(newPath, segmentPayload{Schema: SegmentSchemaVersion, DS: newDS, Samples: kept})
	if err != nil {
		return 0, nil
	}
	if newPath != m.path {
		os.Remove(m.path)
	}
	delta := size - m.size
	m.path, m.ds, m.size = newPath, newDS, size
	if len(kept) > 0 {
		m.fromMS, m.toMS = kept[0].TSMS, kept[len(kept)-1].TSMS
	}
	s.downsampled++
	return delta, nil
}

// Query returns the points of one series inside [from, to], oldest
// first, folded onto an epoch-aligned step grid (the last sample in
// each step window wins; step <= 0 returns raw samples). Sealed
// segments and the unsealed buffer both contribute; a segment failing
// validation mid-run is quarantined and skipped — a gap, never an
// error. A nil store returns nil.
func (s *Store) Query(name string, from, to time.Time, step time.Duration) []Point {
	if s == nil {
		return nil
	}
	fromMS, toMS := from.UnixMilli(), to.UnixMilli()
	var pts []Point
	collect := func(samples []Sample) {
		for _, sm := range samples {
			if sm.TSMS < fromMS || sm.TSMS > toMS {
				continue
			}
			if v, ok := sm.Values[name]; ok {
				pts = append(pts, Point{TSMS: sm.TSMS, V: v})
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(s.segs); i++ {
		m := s.segs[i]
		if m.toMS < fromMS || m.fromMS > toMS {
			continue
		}
		p, _, err := readSegmentFile(m.path)
		if err != nil {
			s.dropCorruptLocked(i)
			i--
			continue
		}
		collect(p.Samples)
	}
	collect(s.active)
	return alignStep(pts, step)
}

// alignStep folds time-ordered points onto an epoch-aligned step grid,
// keeping the last point per bucket (series are cumulative counters or
// instantaneous gauges; either way the window's endpoint is the value
// an operator wants at that resolution).
func alignStep(pts []Point, step time.Duration) []Point {
	stepMS := step.Milliseconds()
	if stepMS <= 0 || len(pts) == 0 {
		return pts
	}
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		b := p.TSMS / stepMS * stepMS
		if n := len(out); n > 0 && out[n-1].TSMS == b {
			out[n-1].V = p.V
			continue
		}
		out = append(out, Point{TSMS: b, V: p.V})
	}
	return out
}

// Series lists every series name the store has seen, sorted. A nil
// store returns nil.
func (s *Store) Series() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.names))
	for k := range s.names {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the store's occupancy and maintenance counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:        len(s.segs),
		BufferedSamples: len(s.active),
		Series:          len(s.names),
		Sealed:          s.sealed,
		Downsampled:     s.downsampled,
		DroppedAge:      s.droppedAge,
		DroppedBudget:   s.droppedBudget,
		Corrupt:         s.corrupt,
	}
	for _, m := range s.segs {
		st.Bytes += m.size
	}
	return st
}
