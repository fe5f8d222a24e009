package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"maps"
	"testing"
	"time"

	"hwgc"
)

// benchEnvelope is checkpointedEnvelope for benchmarks: a genuine mid-run
// S21 envelope cut 200 cycles into the collection.
func benchEnvelope(tb testing.TB, cores int, seed int64) *ExportedJob {
	tb.Helper()
	req := hwgc.CollectRequest{Bench: "search", Seed: seed, Config: hwgc.Config{Cores: cores}}
	canonical, err := req.CanonicalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	rc, err := hwgc.StartCollectRequest(req)
	if err != nil {
		tb.Fatal(err)
	}
	if done, err := rc.StepCycles(200); err != nil || done {
		tb.Fatalf("step: done=%v err=%v (need a mid-run position)", done, err)
	}
	snap, err := rc.Snapshot()
	if err != nil {
		tb.Fatal(err)
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

// drainBacklog fills a fresh two-class stride scheduler with a full backlog
// of both classes, then picks and charges until it is empty. It returns the
// two deterministic metrics BenchmarkJobScheduler reports:
//
//   - sched-picks: the picks completed (the drained backlog size);
//   - sched-order-hash: an FNV-32a hash of the class-name pick sequence.
//     The discipline is deterministic (stride + aging with deterministic
//     tie-breaks), so an altered weight rule, aging constant or tie-break
//     shifts this hash.
func drainBacklog(tb testing.TB) map[string]int64 {
	const perClass = 256
	classes := []ClassConfig{
		{Name: "interactive", Weight: 8},
		{Name: "batch", Weight: 1},
	}
	s, err := NewScheduler(classes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close(false)
	// A full backlog of both classes before the first pick, so every pick
	// exercises the contended cross-class decision.
	for n := 0; n < perClass; n++ {
		for _, c := range classes {
			j := &job{ID: fmt.Sprintf("%s-%d", c.Name, n), Class: c.Name, State: StateQueued}
			if err := s.Enqueue(j); err != nil {
				tb.Fatal(err)
			}
		}
	}
	h := fnv.New32a()
	var picks int64
	for s.Backlog() > 0 {
		j := s.Next()
		if j == nil {
			tb.Fatal("scheduler closed with backlog remaining")
		}
		_, _ = h.Write([]byte(j.Class))
		s.Charge(j.Class)
		picks++
	}
	return map[string]int64{"sched-picks": picks, "sched-order-hash": int64(h.Sum32())}
}

// BenchmarkJobScheduler measures the pure scheduling cost of the stride
// scheduler — enqueue, fair-share pick, and service charge for a mixed
// interactive/batch backlog — without running any simulation work.
// TestPinsScheduler holds its deterministic metrics.
func BenchmarkJobScheduler(b *testing.B) {
	var m map[string]int64
	for i := 0; i < b.N; i++ {
		m = drainBacklog(b)
	}
	for name, v := range m {
		b.ReportMetric(float64(v), name)
	}
}

// TestPinsScheduler pins the stride scheduler's pick order on the
// BenchmarkJobScheduler backlog.
func TestPinsScheduler(t *testing.T) {
	checkPins(t, drainBacklog(t), map[string]int64{"sched-picks": 512, "sched-order-hash": 3043871285})
}

// migrationPins are BenchmarkMigration's deterministic metrics:
//
//   - env-bytes: size of the JSON wire envelope. Any snapshot-codec or
//     envelope-schema change shifts this.
//   - snap-crc: CRC-32 of the shipped snapshot. Catches silent changes to
//     the S21 encoding or to the simulator state at the capture boundary.
//   - snap-cycle: the simulated cycle at which the checkpoint was cut; a
//     drifted boundary means preemption semantics changed.
func migrationPins(env *ExportedJob, wire []byte) map[string]int64 {
	return map[string]int64{"env-bytes": int64(len(wire)), "snap-crc": int64(env.SnapCRC), "snap-cycle": env.Cycle}
}

// TestPinsMigration pins the BenchmarkMigration envelope.
func TestPinsMigration(t *testing.T) {
	env := benchEnvelope(t, 4, 21)
	wire, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	// env-bytes fell by 10 when envelope version 2 dropped the sweep-job
	// fields: `"Point":0,` (Results was omitted when empty).
	checkPins(t, migrationPins(env, wire), map[string]int64{"env-bytes": 2947799, "snap-crc": 4154548418, "snap-cycle": 200})
}

// checkPins fails t unless got equals the pinned metrics exactly.
func checkPins(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Errorf("got %v, pinned %v", got, want)
	}
}

// BenchmarkMigration measures the full checkpoint-migration ingest path on
// the receiving side: decode the wire envelope, validate it, adopt it into a
// fresh manager, resume from the shipped S21 snapshot, and run to completion.
// The envelope itself is built once outside the timed region, the way a
// rebalance pass ships the same exported bytes to one destination.
//
// TestPinsMigration holds its deterministic metrics (migrationPins).
func BenchmarkMigration(b *testing.B) {
	env := benchEnvelope(b, 4, 21)
	wire, err := json.Marshal(env)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var shipped ExportedJob
		if err := json.Unmarshal(wire, &shipped); err != nil {
			b.Fatal(err)
		}
		if err := shipped.Validate(); err != nil {
			b.Fatal(err)
		}
		m, err := Open(Options{Dir: b.TempDir(), Runners: 1, CheckpointCycles: 1 << 40})
		if err != nil {
			b.Fatal(err)
		}
		if _, accepted, err := m.Import(&shipped); err != nil || !accepted {
			b.Fatalf("import: accepted=%v err=%v", accepted, err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			info, err := m.Get(shipped.ID)
			if err != nil {
				b.Fatal(err)
			}
			if info.State == StateDone {
				break
			}
			if info.State.Terminal() || time.Now().After(deadline) {
				b.Fatalf("imported job state %s", info.State)
			}
			time.Sleep(time.Millisecond)
		}
		if _, _, err := m.Result(shipped.ID); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := m.Drain(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.StopTimer()
	for name, v := range migrationPins(env, wire) {
		b.ReportMetric(float64(v), name)
	}
}
