package events

import (
	"net/http/httptest"
	"testing"
)

func TestLastEventID(t *testing.T) {
	for _, tc := range []struct {
		name, header, query string
		want                int64
	}{
		{"none", "", "", 0},
		{"header", "42", "", 42},
		{"query fallback", "", "last_event_id=7", 7},
		{"header over query", "42", "last_event_id=7", 42},
		{"zero", "0", "", 0},
		{"negative header", "-3", "", 0},
		{"negative query", "", "last_event_id=-3", 0},
		{"garbage header", "abc", "", 0},
		{"garbage query", "", "last_event_id=1x", 0},
		{"garbage header hides query", "abc", "last_event_id=7", 0},
		{"overflow", "99999999999999999999", "", 0},
	} {
		r := httptest.NewRequest("GET", "/v1/sweeps/x/events?"+tc.query, nil)
		if tc.header != "" {
			r.Header.Set("Last-Event-ID", tc.header)
		}
		if got := LastEventID(r); got != tc.want {
			t.Errorf("%s: LastEventID = %d, want %d", tc.name, got, tc.want)
		}
	}
}
