// Package recfile is the one on-disk record discipline shared by the
// persistent stores (the cas record store and the telemetry segment
// store): a checksummed frame around each payload, atomic temp-file +
// rename writes, quarantine of files that fail validation, and the
// sweep of stale temp files a crashed writer left behind.
//
// A frame is a fixed little-endian header followed by the payload:
//
//	offset 0  magic   4 bytes, chosen by the caller ("QCAS", "QTSG")
//	offset 4  version uint32, chosen by the caller
//	offset 8  length  uint64 (payload bytes)
//	offset 16 crc     uint32 (Castagnoli CRC-32 of the payload)
//	offset 20 payload
//
// Readers treat a wrong magic, an unknown version, a length mismatch or
// a checksum mismatch alike: the file is corrupt, never a payload. So a
// torn write, a bad disk or a newer binary's layout reads as a miss.
package recfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// HeaderSize is the frame header length in bytes.
const HeaderSize = 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format names one framed file type: its magic and the layout version
// this build reads and writes. Version increments on any incompatible
// layout change.
type Format struct {
	Magic   [4]byte
	Version uint32
}

// Frame returns the header followed by payload, in one buffer.
func (f Format) Frame(payload []byte) []byte {
	data := make([]byte, HeaderSize+len(payload))
	copy(data[0:4], f.Magic[:])
	binary.LittleEndian.PutUint32(data[4:8], f.Version)
	binary.LittleEndian.PutUint64(data[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(data[16:20], crc32.Checksum(payload, crcTable))
	copy(data[HeaderSize:], payload)
	return data
}

// Unframe validates data as one frame of format f and returns its
// payload, a subslice of data (no copy).
func (f Format) Unframe(data []byte) ([]byte, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("recfile: %s frame truncated at %d bytes", string(f.Magic[:]), len(data))
	}
	if [4]byte(data[0:4]) != f.Magic {
		return nil, fmt.Errorf("recfile: bad magic %q, want %q", data[0:4], string(f.Magic[:]))
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != f.Version {
		return nil, fmt.Errorf("recfile: %s version %d, this build reads %d", string(f.Magic[:]), v, f.Version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if uint64(len(data)-HeaderSize) != n {
		return nil, fmt.Errorf("recfile: payload length %d, header says %d", len(data)-HeaderSize, n)
	}
	payload := data[HeaderSize:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, fmt.Errorf("recfile: checksum %08x, header says %08x", got, want)
	}
	return payload, nil
}

// tmpSuffix marks in-flight writes; Sweep removes stale files carrying
// it.
const tmpSuffix = ".tmp"

// WriteAtomic writes data to path through a temp file in the same
// directory and a rename, so readers see either the old file or the
// whole new one, never a torn write. The temp file is removed on error.
func WriteAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Quarantine moves a file that failed validation to dst for postmortem;
// if the move fails the file is removed, so it cannot fail again.
func Quarantine(path, dst string) {
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// tempGrace is how old a temp file must be before Sweep takes it for a
// crashed writer's leftover. WriteAtomic finishes in well under a
// second, so a younger temp file may belong to a live writer in another
// process that is about to rename it.
const tempGrace = time.Minute

// Sweep lists dir, removing the temp files a crashed WriteAtomic left
// behind (those older than tempGrace), and returns the remaining
// entries other than temp files. The error is os.ReadDir's.
func Sweep(dir string) ([]os.DirEntry, error) {
	ents, err := os.ReadDir(dir)
	kept := ents[:0]
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > tempGrace {
				os.Remove(filepath.Join(dir, e.Name()))
			}
			continue
		}
		kept = append(kept, e)
	}
	return kept, err
}
