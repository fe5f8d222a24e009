// Package events is the serving stack's one event stream: a bounded,
// replayable event log with live fan-out (each job and each sweep owns one),
// and the Server-Sent Events writer that serves such a log with
// Last-Event-ID resume on gcserved and gcfleet alike.
package events

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event is what a Log carries. E is the implementing type itself.
type Event[E any] interface {
	// Stamped returns the event with its stream position and time set.
	Stamped(seq int64, at time.Time) E
	// Frame returns the event's SSE id and event name, and whether it ends
	// the stream.
	Frame() (id int64, name string, terminal bool)
}

// Log is one stream's event history plus its live subscribers. The
// history keeps the newest events up to a cap, so a late subscriber still
// sees the current state. Delivery is best-effort: a subscriber that stops
// draining loses events rather than blocking the emitter, because the
// owner's own record (job table, sweep Info) is authoritative and a
// reconnecting client replays what the ring still holds.
type Log[E Event[E]] struct {
	mu        sync.Mutex
	seq       int64
	ring      []E // newest maxEvents, in order
	subs      map[chan E]struct{}
	done      bool // terminal event emitted: new subscribers get no channel
	clock     func() time.Time
	maxEvents int
	subBuffer int
}

// NewLog returns an empty log that keeps the newest maxEvents events, gives
// each subscriber a channel of subBuffer events, and stamps events with
// clock (nil selects time.Now).
func NewLog[E Event[E]](clock func() time.Time, maxEvents, subBuffer int) *Log[E] {
	if clock == nil {
		clock = time.Now
	}
	return &Log[E]{subs: make(map[chan E]struct{}), clock: clock, maxEvents: maxEvents, subBuffer: subBuffer}
}

// Emit stamps ev with the next sequence number and the time, records it
// and fans it out. A terminal event closes every subscriber channel after
// delivery.
func (l *Log[E]) Emit(ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev = ev.Stamped(l.seq, l.clock())
	l.ring = append(l.ring, ev)
	if len(l.ring) > l.maxEvents {
		l.ring = l.ring[len(l.ring)-l.maxEvents:]
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop
		}
	}
	if _, _, terminal := ev.Frame(); terminal {
		l.done = true
		for ch := range l.subs {
			close(ch)
			delete(l.subs, ch)
		}
	}
}

// Subscribe returns the replayable history and a live channel (nil when
// the stream already ended; the history then ends in the terminal event).
// Call Unsubscribe when done.
func (l *Log[E]) Subscribe() ([]E, chan E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	history := append([]E(nil), l.ring...)
	if l.done {
		return history, nil
	}
	ch := make(chan E, l.subBuffer)
	l.subs[ch] = struct{}{}
	return history, ch
}

// Unsubscribe detaches ch. Safe to call after a terminal event closed it.
func (l *Log[E]) Unsubscribe(ch chan E) {
	if ch == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.subs[ch]; ok {
		delete(l.subs, ch)
		close(ch)
	}
}

// LastEventID extracts the SSE resume position: the Last-Event-ID header a
// reconnecting EventSource sends automatically, with ?last_event_id= as a
// curl-friendly fallback. Zero means "from the beginning"; so does a
// negative or malformed value.
func LastEventID(r *http.Request) int64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// ErrNoFlusher reports a connection that cannot stream.
var ErrNoFlusher = errors.New("streaming unsupported by this connection")

// Serve streams a subscription as Server-Sent Events: the history after the
// client's Last-Event-ID, then live events, until a terminal event, the
// live channel closing, the client disconnecting, or stop closing (a
// draining server: the client reconnects and resumes). Every event carries
// its id, its name as the SSE event and its JSON as data. Serve returns
// ErrNoFlusher, having written nothing, when w cannot stream.
func Serve[E Event[E]](w http.ResponseWriter, r *http.Request, history []E, live <-chan E, stop <-chan struct{}) error {
	fl, ok := w.(http.Flusher)
	if !ok {
		return ErrNoFlusher
	}
	resumeFrom := LastEventID(r)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// write emits one event and reports whether the stream is over (a
	// terminal event, or a dead connection).
	write := func(ev E) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		id, name, terminal := ev.Frame()
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data); err != nil {
			return true
		}
		fl.Flush()
		return terminal
	}
	for _, ev := range history {
		if id, _, _ := ev.Frame(); id <= resumeFrom {
			continue
		}
		if write(ev) {
			return nil
		}
	}
	if live == nil {
		return nil
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok || write(ev) {
				return nil
			}
		case <-r.Context().Done():
			return nil
		case <-stop:
			return nil
		}
	}
}
