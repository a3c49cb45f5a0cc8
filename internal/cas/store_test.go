package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/scaffold-go/multisimd/internal/recfile"
)

func testKey(b byte, s string) Key {
	k := Key(sha256.Sum256([]byte(s)))
	k[0] = b // pin the shard
	return k
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(3, "round-trip")
	payload := []byte("hello, characterization")

	if _, ok := s.Get(k); ok {
		t.Fatal("Get before Put returned a record")
	}
	s.Put(k, payload)
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %q, %v; want %q, true", got, ok, payload)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 write, 1 entry", st)
	}
	if st.Bytes != int64(recfile.HeaderSize+len(payload)) {
		t.Fatalf("Bytes = %d; want %d", st.Bytes, recfile.HeaderSize+len(payload))
	}
}

func TestPutIdempotent(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(0, "idempotent")
	s.Put(k, []byte("first"))
	s.Put(k, []byte("first")) // same content address: dropped
	if st := s.Stats(); st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats after double Put = %+v; want 1 write, 1 entry", st)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	k := testKey(9, "empty")
	s.Put(k, nil)
	got, ok := s.Get(k)
	if !ok || len(got) != 0 {
		t.Fatalf("Get = %q, %v; want empty, true", got, ok)
	}
}

// TestReopen simulates a process restart: records written by one Store
// must be served by a fresh Store over the same directory.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	keys := map[Key][]byte{}
	for i := 0; i < 20; i++ {
		k := testKey(byte(i*13), fmt.Sprintf("reopen-%d", i))
		v := []byte(fmt.Sprintf("payload-%d", i))
		keys[k] = v
		s1.Put(k, v)
	}
	s1.Close()

	s2 := mustOpen(t, Options{Dir: dir})
	if got := s2.Len(); got != len(keys) {
		t.Fatalf("reopened Len = %d; want %d", got, len(keys))
	}
	for k, want := range keys {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened Get(%s) = %q, %v; want %q", k, got, ok, want)
		}
	}
}

// TestCrossProcessVisibility: a record written directly to the shard
// directory after Open (as a sibling process would) is found via the
// stat fallback, not missed forever.
func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	k := testKey(7, "sibling")
	payload := []byte("written by another process")

	// A second store over the same dir plays the sibling.
	sib := mustOpen(t, Options{Dir: dir})
	sib.Put(k, payload)

	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get of sibling-written record = %q, %v; want %q, true", got, ok, payload)
	}
}

func corruptRecord(t *testing.T, s *Store, k Key, mutate func([]byte) []byte) string {
	t.Helper()
	st := s.stripe(k)
	path := s.path(st, k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read record: %v", err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatalf("rewrite record: %v", err)
	}
	return path
}

func TestBadChecksumIsMissAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	k := testKey(2, "checksum")
	s.Put(k, []byte("bits that will rot"))
	path := corruptRecord(t, s, k, func(b []byte) []byte {
		b[len(b)-1] ^= 0xff // flip a payload bit
		return b
	})
	if _, ok := s.Get(k); ok {
		t.Fatal("Get of bit-rotted record returned ok")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want 1 corrupt, 0 entries", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record still in shard dir: err=%v", err)
	}
	q := filepath.Join(dir, "quarantine", k.String()+".bad")
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	// The miss is permanent, not a crash loop.
	if _, ok := s.Get(k); ok {
		t.Fatal("second Get after quarantine returned ok")
	}
}

func TestBadMagicAndVersionAreMisses(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"magic": func(b []byte) []byte {
			copy(b[0:4], "NOPE")
			return b
		},
		"version": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], recordFormat.Version+1)
			return b
		},
		"length": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t, Options{Dir: t.TempDir()})
			k := testKey(4, "header-"+name)
			s.Put(k, []byte("payload"))
			corruptRecord(t, s, k, mutate)
			if _, ok := s.Get(k); ok {
				t.Fatal("Get of mangled record returned ok")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d; want 1", st.Corrupt)
			}
		})
	}
}

// TestTornTempCleanedAtOpen: a crash mid-write leaves a *.tmp behind;
// Open must sweep it and not index it.
func TestTornTempCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	k := testKey(5, "torn-tmp")
	s1.Put(k, []byte("durable"))
	st := s1.stripe(k)
	tmp := filepath.Join(st.dir, "put-123.tmp")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := mustOpen(t, Options{Dir: dir})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived reopen: err=%v", err)
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("Len after reopen = %d; want 1", got)
	}
}

// TestConcurrentSameShard hammers one shard with concurrent writers and
// readers; run under -race this is the striping-correctness check.
func TestConcurrentSameShard(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	const n = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := testKey(6, fmt.Sprintf("c-%d", i)) // all shard 6
				s.Put(k, []byte(fmt.Sprintf("value-%d", i)))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := testKey(6, fmt.Sprintf("c-%d", i))
				if v, ok := s.Get(k); ok && !bytes.Equal(v, []byte(fmt.Sprintf("value-%d", i))) {
					t.Errorf("Get(c-%d) = %q", i, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d; want %d", got, n)
	}
	for i := 0; i < n; i++ {
		k := testKey(6, fmt.Sprintf("c-%d", i))
		v, ok := s.Get(k)
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("value-%d", i))) {
			t.Fatalf("final Get(c-%d) = %q, %v", i, v, ok)
		}
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	k := testKey(8, "ro")
	w.Put(k, []byte("seed record"))
	w.Close()

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if v, ok := ro.Get(k); !ok || !bytes.Equal(v, []byte("seed record")) {
		t.Fatalf("read-only Get = %q, %v", v, ok)
	}
	k2 := testKey(8, "ro-put")
	ro.Put(k2, []byte("dropped"))
	if _, ok := ro.Get(k2); ok {
		t.Fatal("Put on read-only store persisted a record")
	}
	if n := ro.Compact(0); n != 0 {
		t.Fatalf("Compact on read-only store removed %d records", n)
	}
	if got := ro.Len(); got != 1 {
		t.Fatalf("read-only Len = %d; want 1", got)
	}
}

// TestReadOnlyGetKeepsMtime: a read-only seed layer serves records
// without writing to its files, so a hit must not touch the mtime the
// LRU ordering of a writable store relies on.
func TestReadOnlyGetKeepsMtime(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	k := testKey(9, "ro-mtime")
	w.Put(k, []byte("seed record"))
	path := w.path(w.stripe(k), k)
	w.Close()
	past := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if _, ok := ro.Get(k); !ok {
		t.Fatal("read-only Get missed the seed record")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(past) {
		t.Fatalf("read-only Get rewrote the record mtime: %v; want %v", info.ModTime(), past)
	}
}

// TestReadOnlyCorruptSkippedInPlace: a read-only store must not mutate
// the seed directory even when it finds corruption.
func TestReadOnlyCorruptSkippedInPlace(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	k := testKey(10, "ro-corrupt")
	w.Put(k, []byte("seed"))
	path := corruptRecord(t, w, k, func(b []byte) []byte {
		b[recfile.HeaderSize] ^= 0xff
		return b
	})
	w.Close()

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if _, ok := ro.Get(k); ok {
		t.Fatal("read-only Get of corrupt record returned ok")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("read-only store moved the corrupt seed record: %v", err)
	}
	if st := ro.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d; want 1", st.Corrupt)
	}
}

func TestCompactBoundsBytes(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	payload := bytes.Repeat([]byte("x"), 100)
	recSize := int64(recfile.HeaderSize + len(payload))
	var keys []Key
	for i := 0; i < 10; i++ {
		k := testKey(byte(i), fmt.Sprintf("compact-%d", i))
		keys = append(keys, k)
		s.Put(k, payload)
		// Strictly increasing mtimes so eviction order is deterministic.
		st := s.stripe(k)
		ts := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(s.path(st, k), ts, ts)
		st.mu.Lock()
		st.index[k] = indexEntry{size: recSize, atime: ts}
		st.mu.Unlock()
	}

	target := 4 * recSize
	removed := s.Compact(target)
	if removed != 6 {
		t.Fatalf("Compact removed %d; want 6", removed)
	}
	st := s.Stats()
	if st.Bytes > target || st.Entries != 4 || st.Compacted != 6 {
		t.Fatalf("stats after compact = %+v; want ≤%d bytes, 4 entries", st, target)
	}
	// Oldest six gone, newest four still served.
	for i, k := range keys {
		_, ok := s.Get(k)
		if want := i >= 6; ok != want {
			t.Fatalf("Get(compact-%d) ok=%v; want %v", i, ok, want)
		}
	}
}

func TestCompactNoopUnderTarget(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put(testKey(0, "small"), []byte("tiny"))
	if n := s.Compact(1 << 20); n != 0 {
		t.Fatalf("Compact under target removed %d records", n)
	}
}

func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{
		Dir:          dir,
		MaxBytes:     int64(recfile.HeaderSize + 10),
		CompactEvery: 5 * time.Millisecond,
	})
	for i := 0; i < 8; i++ {
		s.Put(testKey(byte(i*31), fmt.Sprintf("bg-%d", i)), bytes.Repeat([]byte("y"), 10))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Stats(); st.Bytes <= int64(recfile.HeaderSize+10) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background compaction never reached target: %+v", s.Stats())
}

func TestNewKeyDomainsAndParts(t *testing.T) {
	a := NewKey("comm/v1", []byte("ab"), []byte("c"))
	b := NewKey("comm/v1", []byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("length-prefixing failed: shifted parts collide")
	}
	c := NewKey("sched/v1", []byte("ab"), []byte("c"))
	if a == c {
		t.Fatal("domain separation failed")
	}
	if a != NewKey("comm/v1", []byte("ab"), []byte("c")) {
		t.Fatal("NewKey not deterministic")
	}
}

func TestOpenValidatesShards(t *testing.T) {
	for _, n := range []int{-1, 3, 257, 512} {
		if _, err := Open(Options{Dir: t.TempDir(), Shards: n}); err == nil {
			t.Fatalf("Open with Shards=%d succeeded", n)
		}
	}
	s := mustOpen(t, Options{Dir: t.TempDir(), Shards: 8})
	k := testKey(0xff, "mask") // 0xff & 7 = stripe 7
	s.Put(k, []byte("v"))
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get with 8 shards = %q, %v", v, ok)
	}
}
