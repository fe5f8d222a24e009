package frontdoor

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwgc"
	"hwgc/internal/plan"
)

// pointBody is a fake collect reply: enough for ResponseBody to assemble.
func pointBody(cores int) []byte {
	return []byte(`{"Key":"k` + strconv.Itoa(cores) + `","Result":{}}`)
}

// failures records what a fake Door was asked to write or map.
type failures struct {
	mu   sync.Mutex
	errs []error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errs = append(f.errs, err)
}

// fakeDoor is a Door over run, recording failures.
func fakeDoor(bound int, run func(ctx context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error)) (*Door, *failures) {
	f := &failures{}
	return &Door{
		RunPoint: run,
		WriteFailure: func(w http.ResponseWriter, err error) {
			f.add(err)
			WriteError(w, http.StatusInternalServerError, "%v", err)
		},
		ItemStatus: func(err error) (int, string) {
			f.add(err)
			return http.StatusInternalServerError, err.Error()
		},
		Bound:   bound,
		Timeout: 30 * time.Second,
	}, f
}

func serve(ctx context.Context, h http.HandlerFunc, body string) *httptest.ResponseRecorder {
	path := "/v1/sweep"
	if strings.HasPrefix(body, `{"Items"`) {
		path = "/v1/batch"
	}
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h(w, r)
	return w
}

const sweep124 = `{"Bench":"jlisp","Cores":[1,2,4],"Config":{}}`

// TestFirstFailingPointInCoreOrder: when two points fail, the earlier point
// in core order decides the reply, even though the later one failed first.
func TestFirstFailingPointInCoreOrder(t *testing.T) {
	errFirst, errLate := errors.New("1-core point failed"), errors.New("4-core point failed")
	for _, body := range []string{sweep124, `{"Items":[{"Sweep":` + sweep124 + `}]}`} {
		lateFailed := make(chan struct{})
		d, f := fakeDoor(0, func(ctx context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error) {
			switch pt.Req.Config.Cores {
			case 1:
				<-lateFailed
				return nil, false, errFirst
			case 4:
				defer close(lateFailed)
				return nil, false, errLate
			}
			return pointBody(pt.Req.Config.Cores), false, nil
		})
		h := d.Sweep
		if strings.HasPrefix(body, `{"Items"`) {
			h = d.Batch
		}
		serve(context.Background(), h, body)
		if len(f.errs) != 1 || f.errs[0] != errFirst {
			t.Errorf("%s: failures %v, want only %v", body, f.errs, errFirst)
		}
	}
}

// TestHitOnlyWhenEveryPointHits: X-Cache is HIT only when every point hit,
// and the reply is the sweep assembled from its points in core order.
func TestHitOnlyWhenEveryPointHits(t *testing.T) {
	var req hwgc.SweepRequest
	if err := plan.DecodeStrict(strings.NewReader(sweep124), &req); err != nil {
		t.Fatal(err)
	}
	key, _ := req.Key()
	want, err := req.ResponseBody([][]byte{pointBody(1), pointBody(2), pointBody(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		miss  int // the core count whose point misses; 0 for none
		state string
	}{{0, "HIT"}, {1, "MISS"}, {4, "MISS"}} {
		d, f := fakeDoor(0, func(_ context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error) {
			return pointBody(pt.Req.Config.Cores), pt.Req.Config.Cores != tc.miss, nil
		})
		w := serve(context.Background(), d.Sweep, sweep124)
		h := w.Result().Header
		if w.Code != http.StatusOK || len(f.errs) != 0 {
			t.Fatalf("miss %d: status %d, failures %v", tc.miss, w.Code, f.errs)
		}
		if h.Get("X-Cache") != tc.state || h.Get("X-Cache-Key") != key || h.Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Errorf("miss %d: headers %v, want X-Cache %s, key %s, length %d", tc.miss, h, tc.state, key, len(want))
		}
		if w.Body.String() != string(want) {
			t.Errorf("miss %d: body %s, want %s", tc.miss, w.Body, want)
		}
	}
}

// TestBoundLimitsConcurrentPoints: the points of one request, all the items
// of a batch together, never run more than Bound at once.
func TestBoundLimitsConcurrentPoints(t *testing.T) {
	const bound = 2
	var inflight, peak atomic.Int64
	d, f := fakeDoor(bound, func(_ context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return pointBody(pt.Req.Config.Cores), false, nil
	})
	item := `{"Sweep":{"Bench":"jlisp","Cores":[1,2,4,8],"Config":{}}}`
	batch := `{"Items":[` + item + `,` + item + `,` + item + `]}`
	for _, body := range []string{batch, `{"Bench":"jlisp","Cores":[1,2,4,8,16,32],"Config":{}}`} {
		peak.Store(0)
		h := d.Sweep
		if strings.HasPrefix(body, `{"Items"`) {
			h = d.Batch
		}
		if w := serve(context.Background(), h, body); w.Code != http.StatusOK || len(f.errs) != 0 {
			t.Fatalf("status %d, failures %v", w.Code, f.errs)
		}
		if p := peak.Load(); p > bound || p < 1 {
			t.Errorf("%d points ran at once, bound %d", p, bound)
		}
	}
}

// TestCancelWhileWaitingForSlot: a request whose context ends while a point
// waits for a slot fails with the context's error, and that point never
// runs.
func TestCancelWhileWaitingForSlot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int64
	d, f := fakeDoor(1, func(ctx context.Context, pt *hwgc.SweepPoint) ([]byte, bool, error) {
		ran.Add(1)
		if pt.Req.Config.Cores == 1 {
			close(started)
			<-ctx.Done() // holds the one slot until the request is cancelled
		}
		return pointBody(pt.Req.Config.Cores), false, nil
	})
	go func() {
		<-started
		cancel()
	}()
	w := serve(ctx, d.Sweep, `{"Bench":"jlisp","Cores":[1,2],"Config":{}}`)
	if len(f.errs) != 1 || !errors.Is(f.errs[0], context.Canceled) || w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, failures %v, want one context.Canceled", w.Code, f.errs)
	}
	if ran.Load() != 1 {
		t.Errorf("%d points ran, want 1: the waiting point started after the cancel", ran.Load())
	}
}
