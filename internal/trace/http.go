package trace

import (
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"

	"legosdn/internal/metrics"
)

// HTTPHandler serves the ring at /debug/traces:
//
//	GET /debug/traces                 recent traces as text
//	GET /debug/traces?limit=20        at most 20 traces
//	GET /debug/traces?format=chrome   Chrome trace_event JSON for
//	                                  chrome://tracing / Perfetto
func (t *Tracer) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = t.WriteChrome(w)
			return
		}
		limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.WriteText(w, limit)
	})
}

// Serve runs a binary's one HTTP listener for h on addr (callers start
// it with go); a listener that fails is logged under who, not fatal.
func Serve(addr string, h http.Handler, who string) {
	log.Printf("%s: listener on %s: %v", who, addr, http.ListenAndServe(addr, h))
}

// NewDebugMux assembles the observability endpoint served on
// -metrics-addr: Prometheus metrics, the trace ring, and net/http/pprof
// profiles — everything needed to join "what happened" (traces, logs)
// with "where did the CPU go" (pprof) on one port.
//
//	/metrics             Prometheus exposition (when reg != nil)
//	/debug/traces        recent traces (text or chrome JSON)
//	/debug/pprof/...     CPU, heap, goroutine, block, mutex profiles
func NewDebugMux(t *Tracer, reg *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.Handle("/debug/traces", t.HTTPHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
