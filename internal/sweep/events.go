package sweep

import (
	"time"

	"hwgc/internal/events"
)

// Event is one entry in a sweep's SSE stream. Type is one of:
//
//   - "planned": the sweep was accepted; Points is the plan size.
//   - "point": one point reached a terminal state (State is "done",
//     "failed" or "cancelled"; Key/Index name the point, Deduped reports a
//     cache or job coalesce, counters give running progress).
//   - "frontier": the ranked frontier changed; Frontier is the new ranking.
//   - "done" / "cancelled": the sweep finished; counters are final and
//     Frontier is the final ranking. Terminal for the stream.
//
// Seq is the stream position clients resume from via Last-Event-ID.
type Event struct {
	Seq       int64
	Time      time.Time
	Type      string
	Key       string          `json:",omitempty"`
	Index     int             `json:",omitempty"`
	State     string          `json:",omitempty"`
	Deduped   bool            `json:",omitempty"`
	Error     string          `json:",omitempty"`
	Points    int             `json:",omitempty"`
	Completed int             `json:",omitempty"`
	Failed    int             `json:",omitempty"`
	Cancelled int             `json:",omitempty"`
	Frontier  []FrontierEntry `json:",omitempty"`
}

// terminal reports whether ev ends the stream.
func (ev Event) terminal() bool { return ev.Type == "done" || ev.Type == "cancelled" }

// Stamped and Frame make Event an events.Event: the SSE event name is the
// type, and a done or cancelled event ends the stream.
func (ev Event) Stamped(seq int64, at time.Time) Event {
	ev.Seq, ev.Time = seq, at
	return ev
}

func (ev Event) Frame() (int64, string, bool) { return ev.Seq, ev.Type, ev.terminal() }

// newEventLog returns a sweep's event log. A full-cap sweep emits one point
// event per point plus frontier updates, so 16384 events of history cover
// 2*MaxSweepSpacePoints with headroom. A stalled SSE client that falls 64
// events behind loses events rather than blocking completions: the sweep
// Info remains the authoritative record, and Last-Event-ID replays what the
// ring still holds.
func newEventLog() *events.Log[Event] { return events.NewLog[Event](nil, 16384, 64) }
