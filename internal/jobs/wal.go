package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// The write-ahead log persists job submissions and state transitions so a
// crashed or restarted process can rebuild the job table exactly. The
// framing mirrors internal/snapshot's section format:
//
//	file   = magic "HWGCJWL1" | record*
//	record = u8 type | u32 payloadLen | payload | u32 crc32(IEEE, payload)
//
// Payloads are canonical JSON (small, debuggable; the only large payloads
// are final result bodies, which are bounded by the serving tier's own
// response sizes). Appends are fsynced before Submit/transition returns, so
// an acknowledged job survives a crash. A torn final record — the only kind
// of corruption a crash mid-append can produce, since records are written
// with a single Write call — is truncated away on replay; corruption
// earlier in the file is reported, not silently skipped.
const (
	walMagic = "HWGCJWL1"
	walName  = "jobs.wal"
)

// Record types.
const (
	recSubmit uint8 = 1 + iota // a new job: id, kind, class, canonical request
	recState                   // a state transition: id, state, cycle, error
	recPoint                   // reserved: a completed point of an old sweep job, skipped on replay
	recResult                  // a final result body: id, encoded response bytes
	recAux                     // an auxiliary subsystem record: kind holds the tag, body the payload
)

// walRecord is the decoded form of one WAL record. Unused fields stay zero
// for a given type.
type walRecord struct {
	Type    uint8           `json:"-"`
	ID      string          `json:",omitempty"`
	Kind    string          `json:",omitempty"`
	Class   string          `json:",omitempty"`
	Request json.RawMessage `json:",omitempty"` // canonical request (recSubmit)
	State   State           `json:",omitempty"`
	Cycle   int64           `json:",omitempty"`
	Error   string          `json:",omitempty"`
	Body    []byte          `json:",omitempty"` // response body (recResult)
	At      time.Time       `json:",omitempty"` // transition time, for Info fidelity across restarts
}

// maxWALRecordBytes bounds one record's payload: the largest legitimate
// payloads are a collect response body and an inline-plan request, both far
// under this. A length prefix beyond the bound is corruption, not data.
const maxWALRecordBytes = 256 << 20

// WAL is the append-only job log. Appends are serialized by the Manager's
// lock; the WAL itself only guards the file handle. A nil *WAL is the log of
// a memory-mode Manager: every method succeeds and persists nothing.
type WAL struct {
	f       *os.File
	path    string
	metrics *Metrics
}

// OpenWAL opens (creating if absent) the WAL in dir, replays every intact
// record, truncates a torn tail, and returns the log opened for append.
func OpenWAL(dir string, m *Metrics) (*WAL, []walRecord, error) {
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, metrics: m}
	recs, err := w.replay()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

// replay reads the whole file, validates framing, and positions the handle
// at the end of the last intact record (truncating a torn tail).
func (w *WAL) replay() ([]walRecord, error) {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		// Fresh log: write the magic now so every non-empty WAL starts
		// identically.
		if _, err := w.f.Write([]byte(walMagic)); err != nil {
			return nil, err
		}
		w.metrics.walReplays.Add(1)
		return nil, w.f.Sync()
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, fmt.Errorf("jobs: %s: bad WAL magic", w.path)
	}
	var recs []walRecord
	off := len(walMagic)
	good := off
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 5 {
			break // torn header
		}
		typ := rest[0]
		n := int(binary.LittleEndian.Uint32(rest[1:5]))
		if n > maxWALRecordBytes {
			return nil, fmt.Errorf("jobs: %s: record at %d claims %d bytes", w.path, off, n)
		}
		if len(rest) < 5+n+4 {
			break // torn payload or checksum
		}
		payload := rest[5 : 5+n]
		sum := binary.LittleEndian.Uint32(rest[5+n:])
		if crc32.ChecksumIEEE(payload) != sum {
			if off+5+n+4 == len(data) {
				break // torn final record: checksum half-written
			}
			return nil, fmt.Errorf("jobs: %s: checksum mismatch at %d", w.path, off)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("jobs: %s: record at %d: %w", w.path, off, err)
		}
		rec.Type = typ
		recs = append(recs, rec)
		off += 5 + n + 4
		good = off
	}
	if good < len(data) {
		w.metrics.walTruncatedBytes.Add(int64(len(data) - good))
		if err := w.f.Truncate(int64(good)); err != nil {
			return nil, err
		}
	}
	if _, err := w.f.Seek(int64(good), io.SeekStart); err != nil {
		return nil, err
	}
	w.metrics.walReplayedRecords.Add(int64(len(recs)))
	w.metrics.walReplays.Add(1)
	return recs, nil
}

// frame serializes one record into its on-disk framing.
func frame(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 5+len(payload)+4)
	buf = append(buf, rec.Type)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload)), nil
}

// Append frames, writes and fsyncs one record. The record is durable when
// Append returns nil.
func (w *WAL) Append(rec walRecord) error {
	if w == nil {
		return nil
	}
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.metrics.fsync.Observe(time.Since(start))
	w.metrics.walRecords.Add(1)
	return nil
}

// Rewrite atomically replaces the log with exactly recs (compaction): a
// temp file is written, fsynced once and renamed over the log, and the
// handle swapped. On any error the original log remains untouched.
func (w *WAL) Rewrite(recs []walRecord) error {
	if w == nil {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), ".wal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	buf := []byte(walMagic)
	for _, rec := range recs {
		fr, err := frame(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		buf = append(buf, fr...)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		tmp.Close()
		return err
	}
	old := w.f
	w.f = tmp
	old.Close()
	w.metrics.walCompactions.Add(1)
	return nil
}

// Close closes the file handle; closing a closed log does nothing. The
// Manager serializes Close against Appends, and an Append after Close fails.
func (w *WAL) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	return f.Close()
}
