package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry in Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// JSONHandler serves the registry as a Gather() snapshot, with
// p50/p95/p99 summaries on every histogram so dashboards don't have to
// re-derive quantiles from the bucket counts.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Gather())
	})
}

// NewMux builds the observability endpoint plsqld serves on
// -metrics-addr: /metrics (Prometheus text), /metrics.json (Gather
// snapshot with quantile summaries), plus the standard net/http/pprof
// handlers under /debug/pprof/. The pprof routes are registered
// explicitly on a private mux — importing net/http/pprof for its
// DefaultServeMux side effect would leak the profiler onto any other
// default-mux listener the process opens.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/metrics.json", JSONHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
