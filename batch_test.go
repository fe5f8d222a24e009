package hwgc

import (
	"bytes"
	"strings"
	"testing"
)

func TestBatchItemPoints(t *testing.T) {
	it := BatchItem{Collect: &CollectRequest{Bench: "jlisp", Config: Config{Cores: 2}}}
	key, pts, err := it.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Key != key || key != KeyBytes(pts[0].Canonical) {
		t.Fatalf("collect item: key %q, points %+v", key, pts)
	}
	want, err := it.Collect.Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != want {
		t.Errorf("batch item key %q != single-request key %q", key, want)
	}

	// A sweep item's key is the sweep key; its points are the collects of
	// its core counts, each keyed like the same /v1/collect request.
	sw := BatchItem{Sweep: &SweepRequest{Bench: "jlisp", Cores: []int{1, 2}}}
	key, pts, err = sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := sw.Sweep.Key(); key != want {
		t.Errorf("sweep item key %q != sweep key %q", key, want)
	}
	if len(pts) != 2 {
		t.Fatalf("sweep item has %d points, want 2", len(pts))
	}
	for i, n := range []int{1, 2} {
		c := CollectRequest{Bench: "jlisp", Config: Config{Cores: n}}
		if want, _ := c.Key(); pts[i].Key != want {
			t.Errorf("point %d key %q != collect key %q", i, pts[i].Key, want)
		}
	}

	for name, bad := range map[string]BatchItem{
		"empty": {},
		"both":  {Collect: &CollectRequest{Bench: "jlisp"}, Sweep: &SweepRequest{Bench: "jlisp"}},
		"bogus": {Collect: &CollectRequest{Bench: "no-such-bench"}},
		"cores": {Sweep: &SweepRequest{Bench: "jlisp", Cores: []int{0}}},
	} {
		if _, _, err := bad.Points(); err == nil {
			t.Errorf("%s item accepted", name)
		}
	}
}

func TestDecodeBatchRequest(t *testing.T) {
	good := `{"Items":[{"Collect":{"Bench":"jlisp","Config":{}}},{"Sweep":{"Bench":"javac","Config":{}}}]}`
	req, err := DecodeBatchRequest(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Items) != 2 {
		t.Fatalf("decoded %d items, want 2", len(req.Items))
	}

	for name, bad := range map[string]string{
		"empty items":   `{"Items":[]}`,
		"no items":      `{}`,
		"unknown field": `{"Items":[{"Collect":{"Bench":"jlisp","Config":{}}}],"Nope":1}`,
		"trailing data": `{"Items":[{"Collect":{"Bench":"jlisp","Config":{}}}]} garbage`,
		"not json":      `what`,
	} {
		if _, err := DecodeBatchRequest(strings.NewReader(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	var many strings.Builder
	many.WriteString(`{"Items":[`)
	for i := 0; i <= MaxBatchItems; i++ {
		if i > 0 {
			many.WriteString(",")
		}
		many.WriteString(`{"Collect":{"Bench":"jlisp","Config":{}}}`)
	}
	many.WriteString(`]}`)
	if _, err := DecodeBatchRequest(strings.NewReader(many.String())); err == nil {
		t.Errorf("oversized batch (%d items) accepted", MaxBatchItems+1)
	}
}

func TestBatchResponseTallyAndEncode(t *testing.T) {
	resp := BatchResponse{Items: []BatchItemResult{
		{Index: 0, Status: 200, Body: []byte(`{"Key":"k"}`)},
		{Index: 1, Status: 429, Error: "queue full"},
		{Index: 2, Status: 400, Error: "invalid"},
	}}
	resp.Tally()
	if resp.OK != 1 || resp.Failed != 2 {
		t.Fatalf("tally OK=%d Failed=%d, want 1/2", resp.OK, resp.Failed)
	}
	var a, b bytes.Buffer
	if err := resp.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := resp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("batch response encoding is not deterministic")
	}
	back, err := DecodeBatchResponse(&a)
	if err != nil {
		t.Fatal(err)
	}
	if back.OK != 1 || back.Failed != 2 || len(back.Items) != 3 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}
