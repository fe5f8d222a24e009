package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hwgc"
)

func openTestWAL(t *testing.T, dir string) (*WAL, []walRecord, *Metrics) {
	t.Helper()
	m := NewMetrics(nil)
	w, recs, err := OpenWAL(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs, m
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, _ := openTestWAL(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	want := []walRecord{
		{Type: recSubmit, ID: "a", Kind: KindCollect, Class: "batch", Request: []byte(`{"Bench":"search"}`)},
		{Type: recState, ID: "a", State: StateRunning},
		{Type: recState, ID: "a", State: StateCheckpointed, Cycle: 7},
		{Type: recResult, ID: "a", State: StateDone, Body: []byte("result-bytes")},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, m2 := openTestWAL(t, dir)
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Type != want[i].Type || rec.ID != want[i].ID || rec.State != want[i].State {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
	if string(got[3].Body) != "result-bytes" {
		t.Fatalf("result body = %q", got[3].Body)
	}
	if m2.walReplayedRecords.Load() != int64(len(want)) {
		t.Fatalf("replayed-records metric = %d", m2.walReplayedRecords.Load())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir)
	if err := w.Append(walRecord{Type: recSubmit, ID: "a", Kind: KindCollect}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the final record: chop off its last 3 bytes (mid-checksum).
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, m := openTestWAL(t, dir)
	if len(recs) != 1 || recs[0].ID != "a" || recs[0].Type != recSubmit {
		t.Fatalf("replay after torn tail = %+v, want just the submit", recs)
	}
	if m.walTruncatedBytes.Load() == 0 {
		t.Fatal("truncated-bytes metric not bumped")
	}
	// The log must be appendable and replayable again after truncation.
	if err := w2.Append(walRecord{Type: recState, ID: "a", State: StateFailed, Error: "x"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, recs3, _ := openTestWAL(t, dir)
	defer w3.Close()
	if len(recs3) != 2 || recs3[1].State != StateFailed {
		t.Fatalf("replay after re-append = %+v", recs3)
	}
}

func TestWALMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := openTestWAL(t, dir)
	if err := w.Append(walRecord{Type: recSubmit, ID: "a", Kind: KindCollect}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload byte inside the FIRST record: this is silent data
	// damage, not a torn append, and must fail the open loudly.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, NewMetrics(nil)); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
}

func TestWALRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	w, _, m := openTestWAL(t, dir)
	for i := 0; i < 10; i++ {
		if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
			t.Fatal(err)
		}
	}
	big, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	keep := []walRecord{{Type: recSubmit, ID: "a", Kind: KindCollect, Class: "batch"}}
	if err := w.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	small, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() >= big.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", big.Size(), small.Size())
	}
	if m.walCompactions.Load() != 1 {
		t.Fatalf("compactions metric = %d", m.walCompactions.Load())
	}
	// The compacted log must serve appends and replay.
	if err := w.Append(walRecord{Type: recState, ID: "a", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, recs, _ := openTestWAL(t, dir)
	defer w2.Close()
	if len(recs) != 2 || recs[0].Type != recSubmit || recs[1].Type != recState {
		t.Fatalf("replay after compaction = %+v", recs)
	}
}

// TestJobsLegacySweepWALReplay opens a jobs directory written by a version
// that still ran core sweeps as multi-point jobs: a WAL holding "sweep"
// jobs with point records and point-numbered state records, and the
// checkpoint file of a sweep parked inside its second point. The layouts
// did not change, so the directory opens. The finished sweep keeps serving
// its stored body; the unfinished one is failed with an error naming
// /v1/sweep and its checkpoint file is removed; collect jobs in the same
// log replay and run as before; and the failure survives the next restart.
func TestJobsLegacySweepWALReplay(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	sweepReq := func(cores string) []byte {
		return []byte(`{"Bench":"search","Cores":[` + cores + `],"Scale":1,"Seed":42,"Config":{}}`)
	}
	doneSweep, parkedSweep := sweepReq("1,2"), sweepReq("4,8")
	doneID, parkedID := hwgc.KeyBytes(doneSweep), hwgc.KeyBytes(parkedSweep)
	queued := collectCanonical(t, 2, 0)
	queuedID := hwgc.KeyBytes(queued)
	doneBody := []byte("{\n  \"Key\": \"" + doneID + "\"\n}\n")

	// The records exactly as the older version framed them: recState and
	// recPoint payloads carry Point, recPoint also a RunResult.
	type legacy struct {
		ID      string          `json:",omitempty"`
		Kind    string          `json:",omitempty"`
		Class   string          `json:",omitempty"`
		Request json.RawMessage `json:",omitempty"`
		State   State           `json:",omitempty"`
		Point   int             `json:",omitempty"`
		Cycle   int64           `json:",omitempty"`
		Result  json.RawMessage `json:",omitempty"`
		Body    []byte          `json:",omitempty"`
		At      time.Time       `json:",omitempty"`
	}
	log := []byte(walMagic)
	for _, r := range []struct {
		typ uint8
		rec legacy
	}{
		{recSubmit, legacy{ID: doneID, Kind: "sweep", Class: "batch", Request: doneSweep, At: at}},
		{recState, legacy{ID: doneID, State: StateRunning, At: at}},
		{recPoint, legacy{ID: doneID, Point: 0, Result: json.RawMessage(`{"Benchmark":"search"}`), At: at}},
		{recPoint, legacy{ID: doneID, Point: 1, Result: json.RawMessage(`{"Benchmark":"search"}`), At: at}},
		{recResult, legacy{ID: doneID, State: StateDone, Body: doneBody, At: at}},
		{recSubmit, legacy{ID: parkedID, Kind: "sweep", Class: "batch", Request: parkedSweep, At: at}},
		{recState, legacy{ID: parkedID, State: StateRunning, At: at}},
		{recPoint, legacy{ID: parkedID, Point: 0, Result: json.RawMessage(`{"Benchmark":"search"}`), At: at}},
		{recState, legacy{ID: parkedID, State: StateCheckpointed, Point: 1, Cycle: 500, At: at}},
		{recSubmit, legacy{ID: queuedID, Kind: KindCollect, Class: "batch", Request: queued, At: at}},
	} {
		payload, err := json.Marshal(r.rec)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, r.typ)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = append(log, payload...)
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	// The parked sweep's checkpoint file; no version reads its contents.
	ckpt := filepath.Join(dir, parkedID+".ckpt")
	if err := os.WriteFile(ckpt, []byte("HWGCJCK1 snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(m *Manager) {
		t.Helper()
		body, info, err := m.Result(doneID)
		if err != nil || !bytes.Equal(body, doneBody) || info.Kind != "sweep" {
			t.Fatalf("finished sweep: body %q, info %+v, err %v", body, info, err)
		}
		info, err = m.Get(parkedID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateFailed || !strings.Contains(info.Error, "/v1/sweep") {
			t.Fatalf("unfinished sweep: state %s, error %q; want failed naming /v1/sweep", info.State, info.Error)
		}
	}
	m, err := Open(Options{Dir: dir, Runners: 1, SliceCycles: 1 << 40})
	if err != nil {
		t.Fatalf("open legacy directory: %v", err)
	}
	check(m)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("stale sweep checkpoint not removed: %v", err)
	}
	waitState(t, m, queuedID, StateDone)
	if body, _, _ := m.Result(queuedID); !bytes.Equal(body, collectBody(t, 2, 0)) {
		t.Fatal("replayed collect job's result differs from an uninterrupted run")
	}
	drainManager(t, m)

	m2, err := Open(Options{Dir: dir, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drainManager(t, m2)
	check(m2)
}
