package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"newtop/internal/obs/flight"
)

func TestHandlerMetricsAndTraces(t *testing.T) {
	o := New()
	o.Reg.Counter("transport_msgs_sent").Add(5)
	o.Reg.Histogram("core_invoke_latency_first").Observe(700 * time.Microsecond)
	c1 := o.Flight.Proc("c1")
	o.Flight.Record(flight.Event{Type: flight.EvCallStart, Proc: c1, Sender: flight.NoSender, MsgSeq: 0x42})
	o.Flight.Record(flight.Event{Type: flight.EvStage, Proc: c1, Sender: flight.NoSender, MsgSeq: 0x42,
		A: flight.StageWord(flight.StClientInvoke, 3|2<<4), B: uint64(time.Millisecond)})

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "transport_msgs_sent 5") ||
		!strings.Contains(metrics, "core_invoke_latency_first_count 1") {
		t.Fatalf("bad /metrics body:\n%s", metrics)
	}

	// /traces is a view of the journal and says, as /journal does, how
	// much of it the view was derived from.
	traces := get("/traces?n=4")
	for _, want := range []string{
		"traces cursor=2 events=2 dropped=0 cap=4096\n",
		"trace 0000000000000042  stages=1\n",
		"client.invoke     proc=c1  dur=1ms mode=3 style=2\n",
	} {
		if !strings.Contains(traces, want) {
			t.Fatalf("/traces missing %q:\n%s", want, traces)
		}
	}
}

func TestHandlerJournal(t *testing.T) {
	o := New()
	p := o.Flight.Proc("n1")
	g := o.Flight.Group("grp")
	o.Flight.SetView(g, 1, []string{"n1", "n2"})
	o.Flight.Record(flight.Event{Type: flight.EvMulticast, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 3})
	o.Flight.Record(flight.Event{Type: flight.EvDeliver, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 3})

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	journal := get("/journal")
	for _, want := range []string{"journal cursor=2 events=2 dropped=0", "multicast", "deliver", "grp/v1"} {
		if !strings.Contains(journal, want) {
			t.Fatalf("/journal missing %q:\n%s", want, journal)
		}
	}

	// Cursor paging: only events after the cursor come back.
	tail := get("/journal?since=1")
	if !strings.Contains(tail, "events=1") || strings.Contains(tail, "multicast") {
		t.Fatalf("/journal?since=1 returned the wrong window:\n%s", tail)
	}

	analyze := get("/journal/analyze")
	for _, want := range []string{"stage", "queue-wait", "ordering-wait", "stalls: none detected", "order: no violations"} {
		if !strings.Contains(analyze, want) {
			t.Fatalf("/journal/analyze missing %q:\n%s", want, analyze)
		}
	}
}

func TestHandlerPromFormat(t *testing.T) {
	o := New()
	o.Reg.Counter("transport_msgs_sent").Add(5)
	o.Reg.Gauge("gcs_groups").Set(2)
	o.Reg.Histogram("core_invoke_latency_first").Observe(2 * time.Millisecond)

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	fetch := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	prom, ctype := fetch("/metrics?format=prom", "")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("prom content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE transport_msgs_sent counter",
		"transport_msgs_sent 5",
		"# TYPE gcs_groups gauge",
		"core_invoke_latency_first_seconds_count 1",
		`quantile="0.95"`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, prom)
		}
	}

	// Accept negotiation selects prom too; the default stays the compact
	// text format.
	negotiated, _ := fetch("/metrics", "text/plain; version=0.0.4")
	if !strings.Contains(negotiated, "# TYPE transport_msgs_sent counter") {
		t.Fatalf("Accept negotiation did not select prom:\n%s", negotiated)
	}
	plain, _ := fetch("/metrics", "")
	if strings.Contains(plain, "# TYPE") {
		t.Fatalf("default format changed:\n%s", plain)
	}
}

// TestHandlerJournalGroupFilter: ?group= scopes /journal and
// /journal/analyze to one group's events — on a sharded node, one shard's
// view of the fabric. Unknown names answer 404 rather than an empty page.
func TestHandlerJournalGroupFilter(t *testing.T) {
	o := New()
	p := o.Flight.Proc("n1")
	ga := o.Flight.Group("kv/s0")
	gb := o.Flight.Group("kv/s1")
	o.Flight.SetView(ga, 1, []string{"n1"})
	o.Flight.SetView(gb, 1, []string{"n1"})
	o.Flight.Record(flight.Event{Type: flight.EvDeliver, Proc: p, Group: ga, Sender: 0, View: 1, MsgSeq: 10})
	o.Flight.Record(flight.Event{Type: flight.EvDeliver, Proc: p, Group: gb, Sender: 0, View: 1, MsgSeq: 20})

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/journal?group=kv/s1")
	if code != 200 {
		t.Fatalf("filtered /journal status %d", code)
	}
	if !strings.Contains(body, "seq=20") || strings.Contains(body, "seq=10") {
		t.Fatalf("filtered /journal body wrong:\n%s", body)
	}
	if !strings.Contains(body, "events=1") {
		t.Fatalf("filtered /journal count wrong:\n%s", body)
	}

	code, _ = get("/journal?group=unknown")
	if code != http.StatusNotFound {
		t.Fatalf("unknown group status %d, want 404", code)
	}

	code, body = get("/journal/analyze?group=kv/s0")
	if code != 200 || !strings.Contains(body, "analyzing 1 journal events") {
		t.Fatalf("filtered analyze: status %d body:\n%s", code, body)
	}
}
