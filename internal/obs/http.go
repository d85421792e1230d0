package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"newtop/internal/obs/flight"
)

// Handler serves the observability domain over HTTP:
//
//	GET /metrics              snapshot of every instrument, text format
//	GET /metrics?format=prom  the same in Prometheus text exposition
//	GET /traces?n=16          stage trees of the n most recent invocations
//	                          in the journal
//	GET /journal?since=<c>    flight-recorder events newer than cursor c
//	GET /journal?group=<g>    only events scoped to group g (composable
//	                          with since; on a sharded node, one shard)
//	GET /journal/analyze      lifecycle decomposition + stall diagnoses
//	                          (also accepts ?group=<g>)
//
// newtop-node mounts this behind its -metrics flag. Prometheus scrapers
// are also recognized by Accept negotiation (an Accept header naming
// the 0.0.4 text format or OpenMetrics selects the prom rendering).
func Handler(o *Obs) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsProm(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			o.Reg.Snapshot().WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		o.Reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 16
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		events, dropped := o.Flight.Since(0)
		m := o.Flight.Meta()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "traces cursor=%d events=%d dropped=%d cap=%d\n",
			o.Flight.Cursor(), len(events), dropped, o.Flight.Cap())
		for i, tr := range flight.Traces(events) {
			if i == n {
				break
			}
			fmt.Fprintln(w)
			tr.WriteText(w, m)
		}
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		since := uint64(0)
		if q := r.URL.Query().Get("since"); q != "" {
			if v, err := strconv.ParseUint(q, 10, 64); err == nil {
				since = v
			}
		}
		events, dropped := o.Flight.Since(since)
		m := o.Flight.Meta()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if g := r.URL.Query().Get("group"); g != "" {
			var ok bool
			if events, ok = filterGroup(w, events, m, g); !ok {
				return
			}
		}
		fmt.Fprintf(w, "journal cursor=%d events=%d dropped=%d cap=%d\n",
			o.Flight.Cursor(), len(events), dropped, o.Flight.Cap())
		flight.WriteText(w, events, m)
	})
	mux.HandleFunc("/journal/analyze", func(w http.ResponseWriter, r *http.Request) {
		events, dropped := o.Flight.Since(0)
		m := o.Flight.Meta()
		if g := r.URL.Query().Get("group"); g != "" {
			var ok bool
			if events, ok = filterGroup(w, events, m, g); !ok {
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "analyzing %d journal events (%d lost to ring overwrite)\n\n", len(events), dropped)
		d := flight.Decompose(flight.Timelines(events))
		d.WriteText(w)
		fmt.Fprintln(w)
		stalls := flight.DetectStalls(events, m, flight.StallConfig{})
		if len(stalls) == 0 {
			fmt.Fprintln(w, "stalls: none detected")
		} else {
			fmt.Fprintf(w, "stalls: %d\n", len(stalls))
			for _, s := range stalls {
				fmt.Fprintf(w, "  %s\n", s)
			}
		}
		// Gaps from ring overwrite are expected on a long-lived node, so
		// the order check only reports regressions/disagreements unless
		// the window is complete.
		violations := flight.CheckOrder(events, m, dropped == 0)
		if len(violations) == 0 {
			fmt.Fprintln(w, "order: no violations")
		} else {
			fmt.Fprintf(w, "order: %d violations\n", len(violations))
			for _, v := range violations {
				fmt.Fprintf(w, "  %s\n", v)
			}
		}
	})
	return mux
}

// filterGroup scopes journal events to one named group, answering 404
// when the recorder has never interned that name. ok=false means the
// response has already been written.
func filterGroup(w http.ResponseWriter, events []flight.Event, m *flight.Meta, name string) ([]flight.Event, bool) {
	id, ok := m.GroupID(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown group %q", name), http.StatusNotFound)
		return nil, false
	}
	return flight.FilterGroup(events, id), true
}

// wantsProm reports whether the request asked for Prometheus exposition,
// by explicit ?format=prom or by Accept negotiation.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "version=0.0.4") || strings.Contains(accept, "openmetrics")
}
