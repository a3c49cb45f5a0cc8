package recfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// formats are the two framed file types in the tree: cas records and
// telemetry segments. Every crash case runs over both.
var formats = []Format{
	{Magic: [4]byte{'Q', 'C', 'A', 'S'}, Version: 1},
	{Magic: [4]byte{'Q', 'T', 'S', 'G'}, Version: 1},
}

// TestGoldenHeader pins the on-disk bytes. The payload is the standard
// CRC-32C check input, whose checksum is the published e3069283.
func TestGoldenHeader(t *testing.T) {
	payload := []byte("123456789")
	for _, f := range formats {
		want := append([]byte{}, f.Magic[:]...)
		want = append(want,
			0x01, 0x00, 0x00, 0x00, // version 1
			0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // length 9
			0x83, 0x92, 0x06, 0xe3, // crc32c e3069283
		)
		want = append(want, payload...)
		if got := f.Frame(payload); !bytes.Equal(got, want) {
			t.Errorf("%s frame = % x, want % x", f.Magic[:], got, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range formats {
		for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
			data := f.Frame(payload)
			if len(data) != HeaderSize+len(payload) {
				t.Fatalf("%s: frame of %d bytes is %d long", f.Magic[:], len(payload), len(data))
			}
			got, err := f.Unframe(data)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s: Unframe = %q, %v; want %q", f.Magic[:], got, err, payload)
			}
			// The payload aliases the input: Get paths rely on no copy.
			if len(got) > 0 && &got[0] != &data[HeaderSize] {
				t.Fatalf("%s: Unframe copied the payload", f.Magic[:])
			}
		}
	}
}

// TestDamagedFramesRejected is the crash table: every way a file can be
// torn or rotted must return an error and never a payload.
func TestDamagedFramesRejected(t *testing.T) {
	payload := []byte("a payload that will be damaged")
	type damage struct {
		name   string
		mutate func(f Format, b []byte) []byte
	}
	var cases []damage
	// Truncation at every header field boundary and inside the payload.
	for _, cut := range []int{0, 3, 4, 7, 8, 15, 16, 19, 20, HeaderSize + len(payload)/2, HeaderSize + len(payload) - 1} {
		cut := cut
		cases = append(cases, damage{fmt.Sprintf("cut=%d", cut), func(_ Format, b []byte) []byte { return b[:cut] }})
	}
	cases = append(cases,
		damage{"bad-magic", func(_ Format, b []byte) []byte { copy(b[0:4], "NOPE"); return b }},
		damage{"unknown-version", func(f Format, b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], f.Version+1)
			return b
		}},
		damage{"length-too-long", func(_ Format, b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}},
		damage{"length-too-short", func(_ Format, b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], uint64(len(payload)-1))
			return b
		}},
		damage{"trailing-bytes", func(_ Format, b []byte) []byte { return append(b, 0) }},
		damage{"bad-checksum", func(_ Format, b []byte) []byte { b[16] ^= 0x01; return b }},
		damage{"payload-bit-flip", func(_ Format, b []byte) []byte { b[len(b)-2] ^= 0x40; return b }},
	)
	for _, f := range formats {
		for _, c := range cases {
			t.Run(string(f.Magic[:])+"/"+c.name, func(t *testing.T) {
				data := c.mutate(f, f.Frame(payload))
				got, err := f.Unframe(data)
				if err == nil || got != nil {
					t.Fatalf("Unframe = %q, %v; want nil and an error", got, err)
				}
			})
		}
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec")
	for _, content := range []string{"first", "second, longer"} {
		if err := WriteAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("after WriteAtomic, file = %q, %v; want %q", got, err, content)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %v (%v), want only the written file", ents, err)
	}
	// A failed rename leaves no temp file behind: the target is a
	// non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("WriteAtomic over a non-empty directory succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("failed write left %v behind", ents)
	}
}

// TestSweepRemovesLeftoverTemps: a crash mid-write leaves a *.tmp file;
// Sweep removes it and lists everything else.
func TestSweepRemovesLeftoverTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"keep.rec", "123456.tmp", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := Sweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[README keep.rec]" {
		t.Fatalf("Sweep listed %v, want [README keep.rec]", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "123456.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Sweep: %v", err)
	}
	if _, err := Sweep(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("Sweep of a missing dir: err = %v, want not-exist", err)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "rec")
	dst := filepath.Join(dir, "q", "rec.bad")
	write := func() {
		if err := os.WriteFile(bad, []byte("rot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// No quarantine directory: the move fails, so the file is removed.
	write()
	Quarantine(bad, dst)
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("unmovable corrupt file not removed: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	write()
	Quarantine(bad, dst)
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "rot" {
		t.Fatalf("quarantined copy = %q, %v", got, err)
	}
}
