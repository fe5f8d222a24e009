package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hwgc"
)

// checkpointedEnvelope builds a genuine mid-run envelope without a manager:
// it starts the collection the canonical request describes, advances it
// partway, and wraps the resulting S21 snapshot the way Export would.
func checkpointedEnvelope(t *testing.T, cores int, seed int64) *ExportedJob {
	t.Helper()
	canonical := collectCanonical(t, cores, seed)
	req := hwgc.CollectRequest{Bench: "search", Seed: seed, Config: hwgc.Config{Cores: cores}}
	rc, err := hwgc.StartCollectRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := rc.StepCycles(200); err != nil || done {
		t.Fatalf("step: done=%v err=%v (need a mid-run position)", done, err)
	}
	snap, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return &ExportedJob{
		V:        exportVersion,
		ID:       hwgc.KeyBytes(canonical),
		Kind:     KindCollect,
		Request:  canonical,
		State:    StateCheckpointed,
		Cycle:    rc.Cycle(),
		Snapshot: snap,
		SnapCRC:  crc32.ChecksumIEEE(snap),
	}
}

// TestImportForeignCheckpoint covers adopting a checkpoint no local
// submission ever created: the imported job resumes from the shipped
// snapshot and finishes byte-identical to an uninterrupted local run.
func TestImportForeignCheckpoint(t *testing.T) {
	env := checkpointedEnvelope(t, 4, 11)
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	info, accepted, err := m.Import(env)
	if err != nil || !accepted {
		t.Fatalf("import: accepted=%v err=%v", accepted, err)
	}
	if info.ID != env.ID || info.State != StateCheckpointed || info.Cycle != env.Cycle {
		t.Fatalf("imported info = %+v, want checkpointed at cycle %d", info, env.Cycle)
	}
	waitState(t, m, env.ID, StateDone)
	if m.Metrics().resumes.Load() == 0 {
		t.Fatal("imported job restarted from scratch instead of resuming its snapshot")
	}
	body, _, err := m.Result(env.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectBody(t, 4, 11); !bytes.Equal(body, want) {
		t.Fatal("foreign-checkpoint result differs from uninterrupted run")
	}
	if m.Metrics().imports.Load() != 1 {
		t.Fatalf("imports = %d, want 1", m.Metrics().imports.Load())
	}
	drainManager(t, m)
}

// TestImportRejectsCorrupt covers the integrity gate: corrupt, truncated and
// inconsistent envelopes are rejected with a clean error and leave the job
// table untouched.
func TestImportRejectsCorrupt(t *testing.T) {
	base := checkpointedEnvelope(t, 4, 12)
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(e *ExportedJob){
		"flipped snapshot byte": func(e *ExportedJob) {
			e.Snapshot = append([]byte(nil), e.Snapshot...)
			e.Snapshot[len(e.Snapshot)/2] ^= 0x40
		},
		"truncated snapshot": func(e *ExportedJob) {
			e.Snapshot = append([]byte(nil), e.Snapshot[:len(e.Snapshot)/2]...)
			e.SnapCRC = crc32.ChecksumIEEE(e.Snapshot) // CRC "repaired": decode must still fail
		},
		"unknown version":  func(e *ExportedJob) { e.V = 99 },
		"forged ID":        func(e *ExportedJob) { e.ID = strings.Repeat("ab", 32) },
		"version 1":        func(e *ExportedJob) { e.V = 1 },
		"sweep kind":       func(e *ExportedJob) { e.Kind = "sweep" },
		"missing snapshot": func(e *ExportedJob) { e.Snapshot, e.SnapCRC = nil, 0 },
	}
	want := int64(0)
	for name, mutate := range cases {
		env := *base
		mutate(&env)
		if _, accepted, err := m.Import(&env); err == nil || accepted {
			t.Errorf("%s: import accepted=%v err=%v, want clean rejection", name, accepted, err)
		}
		want++
		if got := m.Metrics().importsRejected.Load(); got != want {
			t.Errorf("%s: importsRejected = %d, want %d", name, got, want)
		}
	}
	if got := len(m.List(false)); got != 0 {
		t.Fatalf("rejected imports left %d jobs in the table", got)
	}
	drainManager(t, m)
}

// TestImportIdempotent covers dedup by content key: replaying an import (or
// racing a duplicate migration) adopts nothing twice.
func TestImportIdempotent(t *testing.T) {
	env := checkpointedEnvelope(t, 4, 13)
	m, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, accepted, err := m.Import(env); err != nil || !accepted {
		t.Fatalf("first import: accepted=%v err=%v", accepted, err)
	}
	info, accepted, err := m.Import(env)
	if err != nil || accepted {
		t.Fatalf("second import: accepted=%v err=%v, want dedup onto the existing job", accepted, err)
	}
	if info.ID != env.ID {
		t.Fatalf("dedup returned job %s", info.ID)
	}
	if m.Metrics().importsDeduped.Load() != 1 || m.Metrics().imports.Load() != 1 {
		t.Fatalf("imports=%d deduped=%d, want 1/1", m.Metrics().imports.Load(), m.Metrics().importsDeduped.Load())
	}
	waitState(t, m, env.ID, StateDone)
	// Importing over the finished job is equally inert.
	if _, accepted, err := m.Import(env); err != nil || accepted {
		t.Fatalf("import over done job: accepted=%v err=%v", accepted, err)
	}
	drainManager(t, m)
}

// TestMigrationSnapshotEquivalence is the gcreplay-diff-backed equivalence
// contract: a checkpoint shipped through the migration wire format resumes
// into a machine whose snapshot diffs empty against the original, and the
// resumed run finishes byte-identical to an uninterrupted one.
func TestMigrationSnapshotEquivalence(t *testing.T) {
	env := checkpointedEnvelope(t, 4, 14)

	// The wire hop the migrator performs: envelope → JSON → envelope.
	wire, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var shipped ExportedJob
	if err := json.Unmarshal(wire, &shipped); err != nil {
		t.Fatal(err)
	}
	if err := shipped.Validate(); err != nil {
		t.Fatalf("shipped envelope fails validation: %v", err)
	}

	// Resume on the "destination" and re-snapshot at the same cycle: the
	// same structural diff gcreplay uses must come back empty.
	req := hwgc.CollectRequest{Bench: "search", Seed: 14, Config: hwgc.Config{Cores: 4}}
	rc, err := hwgc.ResumeCollectRequest(req, shipped.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cycle() != env.Cycle {
		t.Fatalf("resumed at cycle %d, exported at %d", rc.Cycle(), env.Cycle)
	}
	resnap, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	diff, err := hwgc.DiffSnapshots(env.Snapshot, resnap)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 0 {
		t.Fatalf("resumed machine diverges from exported snapshot:\n%s", strings.Join(diff, "\n"))
	}

	// And the resumed run's final response is byte-identical to the
	// uninterrupted run of the same request.
	resp, err := rc.Response()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), collectBody(t, 4, 14)) {
		t.Fatal("resumed response differs from uninterrupted run")
	}
}

// TestExportMigrateRelease is the full in-process migration path: a running
// collect is preempted at a snapshot boundary, exported, imported into a
// second manager, resumed there byte-identically, and released as migrated
// at the source.
func TestExportMigrateRelease(t *testing.T) {
	canonical := collectCanonical(t, 1, 0)
	id := hwgc.KeyBytes(canonical)

	// The hook gates checkpoint boundaries: while gated, the runner parks in
	// the hook until the test steps it through, so the test controls exactly
	// when the runner can observe Export's preempt request.
	var gated atomic.Bool
	entered := make(chan struct{}, 1)
	step := make(chan struct{})
	m1, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 500, CheckpointHook: func(string) {
		if !gated.Load() {
			return
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-step
	}})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	releaseRunner := func() {
		if !released {
			released = true
			gated.Store(false)
			close(step)
		}
	}
	defer func() {
		releaseRunner()
		drainManager(t, m1)
	}()

	if _, _, err := m1.Submit("batch", canonical); err != nil {
		t.Fatal(err)
	}
	// Let the job pass a few checkpoints, then gate the runner at the next
	// one.
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Cycle >= 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never passed cycle 2000 (state %s)", info.State)
		}
		time.Sleep(time.Millisecond)
	}
	gated.Store(true)
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("runner never reached a gated checkpoint")
	}
	m1.mu.Lock()
	j := m1.jobs[id]
	m1.mu.Unlock()

	// Export while the job runs: it must preempt at the held boundary.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type exportResult struct {
		env *ExportedJob
		err error
	}
	exported := make(chan exportResult, 1)
	go func() {
		env, err := m1.Export(ctx, id)
		exported <- exportResult{env, err}
	}()
	// Step gated boundaries through one at a time, but only once Export's
	// preempt request is visible — so the very next boundary check parks the
	// job and Export captures it.
	var res exportResult
stepLoop:
	for {
		select {
		case res = <-exported:
			break stepLoop
		default:
		}
		if j.preempt.Load() {
			select {
			case step <- struct{}{}:
			case res = <-exported:
				break stepLoop
			}
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if res.err != nil {
		t.Fatalf("export: %v", res.err)
	}
	env := res.env
	if env.State != StateCheckpointed || env.Cycle < 2000 || len(env.Snapshot) == 0 {
		t.Fatalf("export envelope: state=%s cycle=%d snapshot=%dB, want a checkpoint past cycle 2000",
			env.State, env.Cycle, len(env.Snapshot))
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("exported envelope fails its own validation: %v", err)
	}
	if m1.Metrics().exports.Load() != 1 {
		t.Fatalf("exports = %d, want 1", m1.Metrics().exports.Load())
	}

	// Import on the destination and run it to completion there.
	m2, err := Open(Options{Dir: t.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	info, accepted, err := m2.Import(env)
	if err != nil || !accepted {
		t.Fatalf("import: accepted=%v err=%v", accepted, err)
	}
	if info.Cycle != env.Cycle || info.State != StateCheckpointed {
		t.Fatalf("imported at cycle %d state %s, want checkpointed at cycle %d", info.Cycle, info.State, env.Cycle)
	}
	waitState(t, m2, id, StateDone)
	if m2.Metrics().resumes.Load() == 0 {
		t.Fatal("migrated job restarted instead of resuming the shipped snapshot")
	}
	body, _, err := m2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := collectBody(t, 1, 0); !bytes.Equal(body, want) {
		t.Fatal("migrated result differs from uninterrupted run")
	}

	// Release the source: the job finishes as migrated, never cancelled.
	if _, err := m1.Release(id); err != nil {
		t.Fatalf("release: %v", err)
	}
	releaseRunner()
	deadline = time.Now().Add(60 * time.Second)
	for {
		info, err := m1.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == StateMigrated {
			break
		}
		if info.State.Terminal() {
			t.Fatalf("released job finished as %s, want migrated", info.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("released job never reached migrated (state %s)", info.State)
		}
		time.Sleep(time.Millisecond)
	}
	if m1.Metrics().migrated.Load() != 1 {
		t.Fatalf("migrated = %d, want 1", m1.Metrics().migrated.Load())
	}
	// A released job is terminal: re-export refuses, release is idempotent.
	if _, err := m1.Export(ctx, id); !errors.Is(err, ErrTerminal) {
		t.Fatalf("export after release: %v, want ErrTerminal", err)
	}
	if _, err := m1.Release(id); err != nil {
		t.Fatalf("second release not idempotent: %v", err)
	}
	// The active listing hides it; the full listing keeps it.
	if got := len(m1.List(true)); got != 0 {
		t.Fatalf("active list has %d jobs after release", got)
	}
	if got := len(m1.List(false)); got != 1 {
		t.Fatalf("full list has %d jobs, want 1", got)
	}
	drainManager(t, m2)
}
