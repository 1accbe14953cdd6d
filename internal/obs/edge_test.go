package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestEdge drives one status per outcome class through the shared edge
// with an inbound traceparent each, then reads them back through
// /v1/debug/traces.
func TestEdge(t *testing.T) {
	e := NewEdge("test_request_duration_seconds", 0)
	cases := []struct {
		status  int
		outcome string
		preset  string // Retry-After set by the handler before replying
		retry   string // Retry-After on the response
	}{
		{http.StatusOK, "ok", "", ""},
		{http.StatusNoContent, "ok", "", ""},
		{http.StatusBadRequest, "bad_request", "", ""},
		{http.StatusNotFound, "bad_request", "", ""},
		{http.StatusTooManyRequests, "rejected", "", "1"},
		{http.StatusInternalServerError, "error", "", ""},
		{http.StatusBadGateway, "bad_gateway", "", "1"},
		{http.StatusServiceUnavailable, "unavailable", "5", "5"},
	}
	const parent = "00f067aa0ba902b7"
	for i, c := range cases {
		tid := fmt.Sprintf("%032x", i+1)
		h := e.Traced("/t", func(w http.ResponseWriter, r *http.Request) {
			if FromContext(r.Context()).ID().String() != tid {
				t.Errorf("%d: handler context does not carry the adopted trace", c.status)
			}
			if c.preset != "" {
				w.Header().Set("Retry-After", c.preset)
			}
			if c.status < 300 {
				Reply(w, c.status, struct{}{})
			} else {
				ReplyError(w, c.status, "status %d", c.status)
			}
			if got := Outcome(w); got != c.outcome {
				t.Errorf("%d: Outcome(w) = %q, want %q", c.status, got, c.outcome)
			}
		})
		req := httptest.NewRequest(http.MethodGet, "/t", nil)
		req.Header.Set("traceparent", "00-"+tid+"-"+parent+"-01")
		rec := httptest.NewRecorder()
		h(rec, req)

		if rec.Code != c.status {
			t.Fatalf("%d: response status %d", c.status, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != c.retry {
			t.Errorf("%d: Retry-After %q, want %q", c.status, got, c.retry)
		}
		echo := rec.Header().Get("Traceparent")
		if !strings.HasPrefix(echo, "00-"+tid+"-") || strings.Contains(echo, parent) {
			t.Errorf("%d: echoed traceparent %q must keep trace %s with a fresh span id", c.status, echo, tid)
		}
		td, ok := e.Flight().Find(tid)
		if !ok {
			t.Fatalf("%d: trace %s not offered to the flight recorder", c.status, tid)
		}
		if td.Outcome != c.outcome || td.ParentID != parent {
			t.Errorf("%d: trace outcome %q parent %q, want %q %q", c.status, td.Outcome, td.ParentID, c.outcome, parent)
		}
		if h := e.lat.Get("/t", c.outcome); h == nil || h.Count() == 0 {
			t.Errorf("%d: no latency observed under outcome %q", c.status, c.outcome)
		}
	}

	// One synthetic 10s trace, so the ?min_ms= cut is deterministic.
	e.Flight().Record(TraceData{TraceID: "slow", DurNS: 10e9})
	srv := httptest.NewServer(http.HandlerFunc(e.HandleDebugTraces))
	defer srv.Close()
	get := func(query string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/debug/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s: %v", query, err)
			}
		}
		return resp.StatusCode
	}

	var one TraceData
	if code := get("?id="+fmt.Sprintf("%032x", 1), &one); code != http.StatusOK || one.Outcome != "ok" {
		t.Fatalf("?id= hit: status %d, trace %+v", code, one)
	}
	if code := get("?id="+strings.Repeat("f", 32), nil); code != http.StatusNotFound {
		t.Fatalf("?id= miss: status %d, want 404", code)
	}
	all := len(cases) + 1
	for _, f := range []struct {
		query string
		kept  int
	}{{"", all}, {"?min_ms=0", all}, {"?min_ms=5000", 1}, {"?min_ms=20000", 0}} {
		var d Dump
		if code := get(f.query, &d); code != http.StatusOK {
			t.Fatalf("%q: status %d", f.query, code)
		}
		if len(d.Traces) != f.kept || d.Retained != all || d.Seen != uint64(all) {
			t.Errorf("%q: kept %d retained %d seen %d, want %d/%d/%d", f.query, len(d.Traces), d.Retained, d.Seen, f.kept, all, all)
		}
	}
	for _, bad := range []string{"-1", "abc"} {
		if code := get("?min_ms="+bad, nil); code != http.StatusBadRequest {
			t.Errorf("?min_ms=%s: status %d, want 400", bad, code)
		}
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestReadBody(t *testing.T) {
	const limit = 8
	cases := []struct {
		name   string
		body   io.Reader
		want   string // the body returned when ok
		ok     bool
		status int
	}{
		{"under", strings.NewReader("1234567"), "1234567", true, http.StatusOK},
		{"at", strings.NewReader("12345678"), "12345678", true, http.StatusOK},
		{"over", strings.NewReader("123456789"), "", false, http.StatusRequestEntityTooLarge},
		{"read error", failingReader{}, "", false, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		b, ok := ReadBody(rec, c.body, limit, "doc")
		if ok != c.ok || rec.Code != c.status {
			t.Errorf("%s: ok=%v status=%d, want ok=%v status=%d", c.name, ok, rec.Code, c.ok, c.status)
		}
		if ok && string(b) != c.want {
			t.Errorf("%s: body %q, want %q", c.name, b, c.want)
		}
		if !ok && (b != nil || !strings.Contains(rec.Body.String(), "doc")) {
			t.Errorf("%s: rejected with body %q and error reply %q", c.name, b, rec.Body.String())
		}
	}
}
