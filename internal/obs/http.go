package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Live debug endpoint. Mounted paths:
//
//	/debug/vars        expvar-style JSON snapshot of the registry
//	/debug/metrics     Prometheus text exposition of the same snapshot
//	/debug/report      the consolidated text report (same as -stats)
//	/debug/trace       Chrome trace_event JSON of the collected spans
//	/debug/trace/{id}  one finished trace's spans + cost ledger (JSON)
//	/debug/pprof/      the standard net/http/pprof handlers
//
// The handlers only read atomic instruments and locked snapshots, so
// they are safe to hit while a run is in flight — that is the point.

// NewMux returns an http.ServeMux with the debug routes mounted. Either
// argument may be nil: reg and col then serve empty documents, and
// /debug/trace/{id} answers 404.
func NewMux(reg *Registry, col *SpanCollector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteReport(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := WriteChromeTrace(w, col); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if col == nil {
			http.Error(w, `{"error":"tracing not enabled"}`, http.StatusNotFound)
			return
		}
		view, found := col.Trace(id)
		if !found {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "{\"error\":\"unknown trace %s\"}\n", id)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(view); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "oocphylo debug endpoint\n\n"+
			"/debug/vars        metrics registry (JSON)\n"+
			"/debug/metrics     Prometheus text exposition\n"+
			"/debug/report      consolidated text report\n"+
			"/debug/trace       Chrome trace_event JSON (load in chrome://tracing)\n"+
			"/debug/trace/{id}  one trace's spans + cost ledger (JSON)\n"+
			"/debug/pprof/      Go profiling\n")
	})
	return mux
}

// Serve listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves the
// debug mux in a background goroutine. It returns the bound address
// (useful with port 0) and a shutdown function that closes the
// listener and waits for the server to stop.
func Serve(addr string, reg *Registry, col *SpanCollector) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux(reg, col), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	shutdown = func() error {
		if err := srv.Close(); err != nil {
			return err
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}
