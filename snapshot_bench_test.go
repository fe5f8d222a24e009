package hwgc

import (
	"fmt"
	"testing"
)

// midRunCollection starts the 8-core search collection and steps it 1000
// cycles, to where the scan frontier, lock registers and in-flight memory
// transactions are all live.
func midRunCollection(tb testing.TB) *Collection {
	tb.Helper()
	h, err := BuildWorkload("search", 1, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	col, err := StartCollection(h, Config{Cores: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if done, err := col.StepCycles(1000); err != nil || done {
		tb.Fatalf("stepping to checkpoint: done=%v err=%v", done, err)
	}
	return col
}

// snapshotPins is BenchmarkSnapshotRoundTrip's deterministic metric: the
// serialized size of the midRunCollection snapshot.
func snapshotPins(tb testing.TB) pinned {
	snap, err := midRunCollection(tb).Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return pinned{"snapshot-bytes": int64(len(snap))}
}

// BenchmarkSnapshotRoundTrip measures one full checkpoint round trip —
// capture + encode to bytes, then decode + rebuild a runnable machine —
// taken mid-collection. snapshot-bytes reports the serialized size;
// TestPins holds it.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	col := midRunCollection(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := col.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		size = len(snap)
		if _, err := ResumeCollection(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
}

// checkpointIntervals are BenchmarkCheckpointedCollect's variants: a plain
// Collect (0) and checkpoint-every-N runs.
var checkpointIntervals = []int64{0, 50000, 5000}

func checkpointCaseName(every int64) string {
	if every == 0 {
		return "plain"
	}
	return fmt.Sprintf("every=%d", every)
}

// collectCheckpointed collects h on 8 cores, snapshotting every `every`
// cycles (never if 0), and returns the cycles and checkpoint count.
func collectCheckpointed(tb testing.TB, h *Heap, every int64) pinned {
	tb.Helper()
	if every == 0 {
		st, err := Collect(h, Config{Cores: 8})
		if err != nil {
			tb.Fatal(err)
		}
		return pinned{"gc-clock-cycles": st.Cycles}
	}
	col, err := StartCollection(h, Config{Cores: 8})
	if err != nil {
		tb.Fatal(err)
	}
	var checkpoints int64
	for {
		done, err := col.StepCycles(every)
		if err != nil {
			tb.Fatal(err)
		}
		if done {
			break
		}
		if _, err := col.Snapshot(); err != nil {
			tb.Fatal(err)
		}
		checkpoints++
	}
	st, err := col.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return pinned{"gc-clock-cycles": st.Cycles, "checkpoints": checkpoints}
}

// BenchmarkCheckpointedCollect measures the overhead of checkpoint-every-N
// execution against a plain run of the same search collection. The cycles
// must be identical across all variants — checkpointing is observation, not
// perturbation — and TestPins holds them and the checkpoint counts; ns/op
// shows the wall-clock cost of the snapshots.
func BenchmarkCheckpointedCollect(b *testing.B) {
	for _, every := range checkpointIntervals {
		b.Run(checkpointCaseName(every), func(b *testing.B) {
			var m pinned
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := BuildWorkload("search", 1, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				m = collectCheckpointed(b, h, every)
			}
			for name, v := range m {
				b.ReportMetric(float64(v), name)
			}
		})
	}
}
