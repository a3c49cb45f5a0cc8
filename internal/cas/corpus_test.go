package cas

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// corpusRecords is the record count of the committed seed corpus that
// qschedd -cache-preload serves; it changes only when the corpus is
// regenerated.
const corpusRecords = 414

// TestCommittedCorpusLoads pins on-disk compatibility: every record of
// the committed bench/baselines/cas corpus must still validate and hit
// under this build's framing, and frame back to the same bytes.
func TestCommittedCorpusLoads(t *testing.T) {
	dir := filepath.Join("..", "..", "bench", "baselines", "cas")
	s := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	if got := s.Len(); got != corpusRecords {
		t.Fatalf("corpus indexes %d records, want %d", got, corpusRecords)
	}
	files, err := filepath.Glob(filepath.Join(dir, "shards", "*", "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		k, ok := keyFromName(filepath.Base(f))
		if !ok {
			t.Fatalf("corpus file %s is not a record name", f)
		}
		payload, ok := s.Get(k)
		if !ok {
			t.Errorf("corpus record %s missed", k)
			continue
		}
		// The writer side too: re-framing the payload reproduces the
		// committed file byte for byte.
		if data, err := os.ReadFile(f); err != nil || !bytes.Equal(recordFormat.Frame(payload), data) {
			t.Errorf("corpus record %s does not re-frame to its bytes (%v)", k, err)
		}
	}
	if st := s.Stats(); st.Hits != corpusRecords || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want %d hits and 0 corrupt", st, corpusRecords)
	}
}
