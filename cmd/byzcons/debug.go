package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"byzcons"
)

// debugSource is what the debug endpoint reads of a deployment; a Session
// and a Fleet both provide it.
type debugSource interface {
	WriteMetrics(io.Writer) error
	TraceEvents() []byzcons.TraceEvent
}

// startDebugServer serves the deployment's live observability surface on addr:
//
//	/metrics     text exposition of every runtime metric ("name value")
//	/events      the protocol trace ring as JSONL, oldest event first
//	/debug/vars  expvar (Go runtime memstats and friends)
//	/debug/pprof the standard profiling endpoints
//
// It returns the running server and the bound address (addr may end in :0).
// The caller owns the server's lifetime; Close tears the listener down.
func startDebugServer(addr string, s debugSource) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debugaddr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range s.TraceEvents() {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
