package jobs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A job's checkpoint file holds one suspended collection: the clock cycle
// reached and the machine snapshot produced by RequestCollection.Snapshot.
// The framing follows the WAL's convention:
//
//	file = magic "HWGCJCK1" | u32 point | u64 cycle | u32 snapLen | snap | u32 crc32(IEEE, snap)
//
// The point field is always written as 0. It numbered the points of the
// sweep jobs older versions ran; a file with a non-zero point belongs to
// such a job and is stale.
//
// Files are written to a temp name, fsynced and renamed, so a crash leaves
// either the previous checkpoint or the new one — never a torn file. An
// unreadable or stale file is swept (with a metric) and the point restarts
// from scratch; determinism means only time is lost, never correctness.
const (
	ckptMagic  = "HWGCJCK1"
	ckptSuffix = ".ckpt"
)

// checkpoint is one decoded job checkpoint.
type checkpoint struct {
	Cycle int64
	Snap  []byte
}

// ckptPath returns the checkpoint file path for a job ID (IDs are hex
// SHA-256, so they are always filename-safe).
func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.opts.Dir, id+ckptSuffix)
}

// writeCheckpoint atomically persists ck at path.
func writeCheckpoint(path string, ck checkpoint) error {
	buf := make([]byte, 0, len(ckptMagic)+16+len(ck.Snap)+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // point, see above
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Cycle))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Snap)))
	buf = append(buf, ck.Snap...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(ck.Snap))
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return checkpoint{}, err
	}
	hdr := len(ckptMagic) + 16
	if len(data) < hdr || string(data[:len(ckptMagic)]) != ckptMagic {
		return checkpoint{}, fmt.Errorf("jobs: %s: bad checkpoint header", path)
	}
	off := len(ckptMagic)
	if point := binary.LittleEndian.Uint32(data[off:]); point != 0 {
		return checkpoint{}, fmt.Errorf("jobs: %s: stale checkpoint of sweep point %d", path, point)
	}
	ck := checkpoint{Cycle: int64(binary.LittleEndian.Uint64(data[off+4:]))}
	n := int(binary.LittleEndian.Uint32(data[off+12:]))
	body := data[hdr:]
	if n < 0 || len(body) != n+4 {
		return checkpoint{}, fmt.Errorf("jobs: %s: truncated checkpoint", path)
	}
	ck.Snap = body[:n]
	if crc32.ChecksumIEEE(ck.Snap) != binary.LittleEndian.Uint32(body[n:]) {
		return checkpoint{}, fmt.Errorf("jobs: %s: checkpoint checksum mismatch", path)
	}
	return ck, nil
}
