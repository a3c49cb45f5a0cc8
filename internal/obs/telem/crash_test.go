package telem

// Crash-safety at the store level. The frame itself (truncation at
// every boundary, bad magic, unknown version, length, checksum, temp
// sweep) is tested once in internal/recfile; here a damaged segment must
// read back as a quarantined gap, never a wrong answer and never an
// error, and a simulated kill -9 (reopen without Close) must serve the
// sealed history bit-identically.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/recfile"
)

// fillStore seals n samples of series "c" (v = i at t = i*2s) into dir
// and returns the sealed segment paths.
func fillStore(t *testing.T, dir string, n int64) []string {
	t.Helper()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < n; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	s.Close()
	return segmentPaths(t, dir)
}

func segmentPaths(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "segments", "*.tseg"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestReopenServesIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < 16; i++ {
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	s.Seal()
	want := s.Query("c", ms(0), ms(32000), 0)
	wantStep := s.Query("c", ms(0), ms(32000), 8*time.Second)
	// Kill -9 simulation: no Close, just open the same dir again.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	if got := s2.Query("c", ms(0), ms(32000), 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen raw query = %+v, want %+v", got, want)
	}
	if got := s2.Query("c", ms(0), ms(32000), 8*time.Second); !reflect.DeepEqual(got, wantStep) {
		t.Fatalf("reopen stepped query = %+v, want %+v", got, wantStep)
	}
}

func TestKillBeforeSealLosesOnlyBuffer(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4})
	for i := int64(0); i < 6; i++ { // 4 sealed + 2 buffered
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	// No Close: the 2 buffered samples die with the process.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	pts := s2.Query("c", ms(0), ms(20000), 0)
	if len(pts) != 4 || pts[3].V != 3 {
		t.Fatalf("after kill-9, query = %+v, want the 4 sealed samples", pts)
	}
}

func TestCorruptHeaderVariantsQuarantine(t *testing.T) {
	corrupt := func(name string, mut func(data []byte)) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := fillStore(t, dir, 4)
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			mut(data)
			if err := os.WriteFile(paths[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openTest(t, Options{Dir: dir, Retention: -1})
			if pts := s.Query("c", ms(0), ms(10000), 0); len(pts) != 0 {
				t.Fatalf("corrupt segment served %+v", pts)
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Segments != 0 {
				t.Fatalf("stats = %+v, want 1 corrupt, 0 segments", st)
			}
			q := quarantined(t, dir)
			if len(q) != 1 || !strings.HasSuffix(q[0], ".bad") {
				t.Fatalf("quarantine holds %v", q)
			}
		})
	}
	corrupt("bad-magic", func(d []byte) { d[0] = 'X' })
	corrupt("future-version", func(d []byte) {
		binary.LittleEndian.PutUint32(d[4:8], segmentFormat.Version+1)
	})
	corrupt("bad-length", func(d []byte) {
		binary.LittleEndian.PutUint64(d[8:16], uint64(len(d))) // claims more than present
	})
	corrupt("bad-checksum", func(d []byte) { d[recfile.HeaderSize] ^= 0x01 })
	corrupt("payload-bit-flip", func(d []byte) { d[len(d)-2] ^= 0x40 })
}

func TestTempFileSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4)
	tmp := filepath.Join(dir, "segments", "seal-crashed.tmp")
	if err := os.WriteFile(tmp, []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{Dir: dir, Retention: -1})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open: %v", err)
	}
	if pts := s.Query("c", ms(0), ms(10000), 0); len(pts) != 4 {
		t.Fatalf("query after sweep = %+v", pts)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 4)
	if err := os.WriteFile(filepath.Join(dir, "segments", "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, Options{Dir: dir, Retention: -1})
	st := s.Stats()
	if st.Segments != 1 || st.Corrupt != 0 {
		t.Fatalf("stats with foreign file = %+v", st)
	}
}

func TestSeqResumesPastExistingSegments(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 8) // two segments, seq 0 and 1
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 1})
	s.Append(ms(100000), map[string]float64{"c": 99})
	s.Close()
	paths := segmentPaths(t, dir)
	if len(paths) != 3 {
		t.Fatalf("segments = %v, want 3", paths)
	}
	// All three must coexist: the new seal must not have reused seq 0/1.
	s2 := openTest(t, Options{Dir: dir, Retention: -1})
	pts := s2.Query("c", ms(0), ms(200000), 0)
	if len(pts) != 9 || pts[8].V != 99 {
		t.Fatalf("query across generations = %+v", pts)
	}
}

// TestCorruptSegmentDuringDownsampleLeavesIndex: a segment that fails
// validation while the byte budget downsamples it is quarantined and
// dropped from the index, so Stats matches the files on disk and later
// queries do not count the same file as corrupt again.
func TestCorruptSegmentDuringDownsampleLeavesIndex(t *testing.T) {
	dir := t.TempDir()
	paths := fillStore(t, dir, 16) // 4 sealed segments
	full := openTest(t, Options{Dir: dir, Retention: -1}).Stats().Bytes
	s := openTest(t, Options{Dir: dir, Retention: -1, SealSamples: 4, MaxBytes: full + full/8})
	if st := s.Stats(); st.Segments != 4 || st.Downsampled != 0 {
		t.Fatalf("setup stats = %+v, want 4 untouched segments", st)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip a payload bit in the oldest segment
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := int64(16); i < 20; i++ { // a fifth seal pushes past the budget
		s.Append(ms(i*2000), map[string]float64{"c": float64(i)})
	}
	st := s.Stats()
	if files := len(segmentPaths(t, dir)); st.Segments != files || st.Corrupt != 1 {
		t.Fatalf("stats = %+v with %d segment files, want them equal and 1 corrupt", st, files)
	}
	s.Query("c", ms(0), ms(40000), 0)
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d after a query, want 1: the quarantined segment was counted again", st.Corrupt)
	}
}
