// Package live makes a live KB durable: a Journal records every delta
// applied to a serving aida.System, in apply order, as a replayable
// append-only file, so a restarted server replays it and serves the same
// KB generation it served before.
package live

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"aida"
	"aida/internal/kb"
)

// journalMagic identifies a delta journal file; the trailing byte is the
// format version. Each applied delta follows as one frame: a big-endian
// uint32 length prefix and an independently gob-encoded kb.Delta.
// Frames are self-contained (a fresh gob encoder per frame) so the file
// can be appended to across process restarts — a single gob stream could
// not be reopened for appending.
var journalMagic = []byte("AIDADLT\x01")

// Journal is an append-only log of applied KB deltas. A server opens it
// on boot (replaying the recorded deltas first, see ReplayJournal),
// installs every live delta through Apply, and thereby makes live updates
// survive restarts. All methods are safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenJournal opens (or creates) the journal at path for appending. An
// existing file's header is validated and its frames scanned; a torn tail
// frame — the mark of a crash mid-append — is truncated away so the next
// Append starts at a clean frame boundary. A file with a foreign header
// is refused rather than overwritten.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	end, _, _, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("live: truncating journal tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Apply installs d into sys and records it, holding the journal's lock
// across both steps: every applier of a journaled System goes through
// here, so the journal lists the deltas in the order they were applied and
// replays onto the same store. err is the apply's own (the delta was
// rejected, nothing changed, nothing was recorded). appendErr means the
// apply stands but is not durable; the caller decides how loudly to say so.
// A nil Journal applies without recording.
func (j *Journal) Apply(sys *aida.System, d *kb.Delta) (receipt aida.DeltaReceipt, appendErr, err error) {
	if j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	receipt, err = sys.ApplyDelta(d)
	if err != nil || j == nil {
		return receipt, nil, err
	}
	return receipt, j.append(d), nil
}

// Append records one delta that was applied elsewhere (a journal written
// ahead of the System it will be replayed into).
func (j *Journal) Append(d *kb.Delta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(d)
}

// append writes one frame with a single Write call after encoding, so a
// crash leaves at most one torn tail frame, which the next OpenJournal
// truncates. Caller holds mu.
func (j *Journal) append(d *kb.Delta) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return fmt.Errorf("live: encoding delta: %w", err)
	}
	frame := make([]byte, 4+buf.Len())
	binary.BigEndian.PutUint32(frame, uint32(buf.Len()))
	copy(frame[4:], buf.Bytes())
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("live: appending delta frame: %w", err)
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReplayJournal reads the journal at path and calls apply for each
// recorded delta in order. A missing file is an empty journal (0, false,
// nil). A torn tail frame stops the replay and is reported via truncated;
// everything before it is applied. An apply error stops the replay and is
// returned with the count of deltas applied so far.
func ReplayJournal(path string, apply func(*kb.Delta) error) (applied int, truncated bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	_, deltas, truncated, err := scanJournal(f)
	if err != nil {
		return 0, false, err
	}
	for _, d := range deltas {
		if err := apply(d); err != nil {
			return applied, truncated, err
		}
		applied++
	}
	return applied, truncated, nil
}

// scanJournal validates the header (writing one into an empty file opened
// read-write) and decodes frames until the end of file or a torn tail.
// It returns the offset of the last clean frame boundary, the decoded
// deltas, and whether a torn tail was skipped.
func scanJournal(f *os.File) (end int64, deltas []*kb.Delta, truncated bool, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, nil, false, err
	}
	if info.Size() == 0 {
		// A brand-new journal: stamp the header if the handle is
		// writable; a read-only scan of an empty file is just empty.
		if n, werr := f.WriteAt(journalMagic, 0); werr == nil && n == len(journalMagic) {
			return int64(len(journalMagic)), nil, false, nil
		}
		return 0, nil, false, nil
	}
	header := make([]byte, len(journalMagic))
	if _, err := f.ReadAt(header, 0); err != nil || !bytes.Equal(header, journalMagic) {
		return 0, nil, false, fmt.Errorf("live: %s is not a delta journal (bad header)", f.Name())
	}
	off := int64(len(journalMagic))
	for off < info.Size() {
		var lenBuf [4]byte
		if _, err := f.ReadAt(lenBuf[:], off); err != nil {
			return off, deltas, true, nil // torn length prefix
		}
		n := int64(binary.BigEndian.Uint32(lenBuf[:]))
		if off+4+n > info.Size() {
			return off, deltas, true, nil // torn frame body
		}
		body := make([]byte, n)
		if _, err := f.ReadAt(body, off+4); err != nil {
			return off, deltas, true, nil
		}
		var d kb.Delta
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&d); err != nil {
			// A frame that does not decode is corruption at rest, not a
			// torn append; refuse rather than silently dropping applied
			// history (later frames would be misaligned anyway).
			return off, deltas, false, fmt.Errorf("live: journal frame at offset %d is corrupt: %w", off, err)
		}
		deltas = append(deltas, &d)
		off += 4 + n
	}
	return off, deltas, false, nil
}
