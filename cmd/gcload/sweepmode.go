package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hwgc"
	"hwgc/internal/sweep"
)

// runSpaceMode drives one parameter-space sweep end to end: submit the spec
// to POST /v1/sweeps, follow the SSE event stream (reconnecting with
// Last-Event-ID on drops), and report submit latency, completion time and
// frontier-convergence latency — the time from submit to the last ranking
// change, which is the number an exploration user actually waits for: the
// moment the top of the frontier stopped moving. Returns ok=false when the
// sweep finished with failures or was cancelled.
func runSpaceMode(cfg loadConfig, w io.Writer) (bool, error) {
	if cfg.batch > 0 || cfg.async || cfg.sweepReq {
		return false, fmt.Errorf("-sweep excludes -batch, -async and -sweepreq")
	}
	spec, err := os.Open(cfg.sweepSpec)
	if err != nil {
		return false, err
	}
	space, err := hwgc.DecodeSweepSpace(spec)
	spec.Close()
	if err != nil {
		return false, fmt.Errorf("decoding %s: %w", cfg.sweepSpec, err)
	}

	body, err := json.Marshal(struct {
		Space *hwgc.SweepSpace
		Class string `json:",omitempty"`
	}{Space: space, Class: cfg.class})
	if err != nil {
		return false, err
	}

	// No client-level timeout: the SSE stream is long-lived by design. The
	// whole sweep is bounded by -timeout through the context instead.
	client := &http.Client{}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	submitLat := time.Since(start)
	if rerr != nil {
		return false, rerr
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("submit status %d: %s", resp.StatusCode, data)
	}
	var info sweep.Info
	if err := json.Unmarshal(data, &info); err != nil {
		return false, fmt.Errorf("decoding sweep info: %w", err)
	}
	verb := "accepted"
	if resp.StatusCode == http.StatusOK {
		verb = "deduped onto existing sweep"
	}
	fmt.Fprintf(w, "gcload: sweep %s (%d points, objective %s) %s\n",
		shortID(info.ID), info.Points, info.Objective, verb)
	fmt.Fprintf(w, "submit   %s\n", submitLat.Round(time.Microsecond))

	final, convergedAt, updates, reconnects, err := followSweep(ctx, client, cfg.url, info.ID, start)
	if err != nil {
		return false, err
	}
	elapsed := final.at
	fmt.Fprintf(w, "%s in %s: completed %d  failed %d  cancelled %d  deduped %d\n",
		final.ev.Type, elapsed.Round(time.Millisecond),
		final.ev.Completed, final.ev.Failed, final.ev.Cancelled, info.Deduped)
	if updates > 0 {
		fmt.Fprintf(w, "frontier converged %s after submit (%d ranking updates", convergedAt.Round(time.Millisecond), updates)
		if reconnects > 0 {
			fmt.Fprintf(w, ", %d stream reconnects", reconnects)
		}
		fmt.Fprintln(w, ")")
	}
	top := final.ev.Frontier
	if len(top) > 5 {
		top = top[:5]
	}
	for _, e := range top {
		fmt.Fprintf(w, "  #%d bench=%s scale=%d seed=%d cores=%d value=%.4f cycles=%d\n",
			e.Rank, e.Bench, e.Scale, e.Seed, e.Cores, e.Value, e.Cycles)
	}
	return final.ev.Type == sweep.StateDone && final.ev.Failed == 0, nil
}

// terminalEvent is the sweep's closing event plus when it was observed.
type terminalEvent struct {
	ev sweep.Event
	at time.Duration // since submit
}

// followSweep reads the sweep's SSE stream to its terminal event. A dropped
// stream reconnects with Last-Event-ID, so no event is observed twice and
// none is missed — the same resume contract a browser EventSource uses.
func followSweep(ctx context.Context, client *http.Client, baseURL, id string, start time.Time) (final terminalEvent, convergedAt time.Duration, updates, reconnects int, err error) {
	var lastSeq int64
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			reconnects++
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return final, 0, 0, reconnects, fmt.Errorf("sweep %s: %w", shortID(id), ctx.Err())
			}
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/sweeps/"+id+"/events", nil)
		if rerr != nil {
			return final, 0, 0, reconnects, rerr
		}
		if lastSeq > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(lastSeq))
		}
		resp, rerr := client.Do(req)
		if rerr != nil {
			if ctx.Err() != nil {
				return final, 0, 0, reconnects, fmt.Errorf("sweep %s: %w", shortID(id), ctx.Err())
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return final, 0, 0, reconnects, fmt.Errorf("event stream status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && data != "":
				var ev sweep.Event
				if jerr := json.Unmarshal([]byte(data), &ev); jerr != nil {
					resp.Body.Close()
					return final, 0, 0, reconnects, fmt.Errorf("decoding event: %w", jerr)
				}
				data = ""
				lastSeq = ev.Seq
				switch ev.Type {
				case "frontier":
					updates++
					convergedAt = time.Since(start)
				case sweep.StateDone, sweep.StateCancelled:
					resp.Body.Close()
					return terminalEvent{ev: ev, at: time.Since(start)}, convergedAt, updates, reconnects, nil
				}
			}
		}
		resp.Body.Close()
		// Stream ended without a terminal event: reconnect and resume.
	}
}

func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
