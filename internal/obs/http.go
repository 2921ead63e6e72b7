package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime/metrics"
	"strconv"
)

// MetricsHandler serves the registry's snapshot as JSON — the /metricz
// endpoint — plus two Go runtime metrics: the gauge go_heap_live_bytes (the
// heap the last collection found live) and the counter go_gc_cycles_total
// (collections completed). Both are read with runtime/metrics when /metricz
// is served, so no other request pays for them and the registry holds
// neither.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := r.Snapshot()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s) // both exist since Go 1.21, below go.mod's line
		snap.Gauges["go_heap_live_bytes"] = int64(s[0].Value.Uint64())
		snap.Counters["go_gc_cycles_total"] = int64(s[1].Value.Uint64())
		serveJSON(w, snap)
	})
}

// tracezSummary is one row of the /tracez listing.
type tracezSummary struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	DurMicros int64  `json:"dur_micros"`
	Spans     int    `json:"spans"`
}

// TraceHandler serves the trace store — the /tracez endpoint. Without
// parameters it lists recent traces (newest first); ?id= returns one full
// trace tree; ?n= bounds the listing length.
func TraceHandler(s *TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, `{"error":"tracing disabled"}`, http.StatusNotFound)
			return
		}
		if id := r.URL.Query().Get("id"); id != "" {
			t, ok := s.Get(id)
			if !ok {
				http.Error(w, `{"error":"unknown trace id"}`, http.StatusNotFound)
				return
			}
			serveJSON(w, t)
			return
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		traces := s.Recent(n)
		out := make([]tracezSummary, len(traces))
		for i, t := range traces {
			out[i] = tracezSummary{ID: t.ID, Name: t.Root.Name, DurMicros: t.DurMicros, Spans: t.Spans()}
		}
		serveJSON(w, out)
	})
}

func serveJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = buf.WriteTo(w)
}
