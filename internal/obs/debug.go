package obs

import (
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// DebugServer serves the observability endpoints of one process:
//
//	/metrics              registry snapshot as JSON (the default)
//	/metrics?format=text  the same, human-readable
//	/metrics?format=prom  Prometheus text exposition (also negotiated
//	                      via the Accept header)
//	/debug/vars           expvar (memstats, cmdline)
//	/debug/pprof/...      the standard pprof handlers
//	/debug/explain        derivation trees, when a command mounts one
//	                      (see Handle)
//
// It is started by the -debug-addr flag of the faure commands.
type DebugServer struct {
	srv  *http.Server
	mux  *http.ServeMux
	addr net.Addr
	done chan struct{}
	// shutDown is closed once Close's Shutdown has returned: Serve
	// returns as soon as the listener closes, before Shutdown closes
	// the idle keep-alive connections, which can still serve requests.
	shutDown  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr.String() }

// Handle mounts an extra handler on the running server — commands use
// it to add endpoints that need state built after the server starts
// (the explain endpoint needs the evaluation's result database).
// http.ServeMux is safe for concurrent Handle/ServeHTTP.
func (d *DebugServer) Handle(pattern string, h http.Handler) { d.mux.Handle(pattern, h) }

// Done is closed once the server has stopped serving: after Close or a
// context cancellation has shut it down, connections included, or
// after a listener error ended the serve loop.
func (d *DebugServer) Done() <-chan struct{} { return d.done }

// shutdownGrace bounds how long Close waits for in-flight requests
// before hard-closing their connections.
const shutdownGrace = 2 * time.Second

// Close shuts the server down gracefully: no new connections, a
// bounded wait for in-flight requests, then a hard close. It is
// idempotent and safe to call concurrently with a context
// cancellation.
func (d *DebugServer) Close() error {
	d.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		d.closeErr = d.srv.Shutdown(ctx)
		if d.closeErr != nil {
			_ = d.srv.Close()
		}
		close(d.shutDown)
		<-d.done
	})
	return d.closeErr
}

// ServeDebug starts the debug endpoint on addr in a background
// goroutine. reg may be nil, in which case /metrics reports an empty
// snapshot. The caller owns the returned server and should Close it.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	return ServeDebugContext(context.Background(), addr, reg)
}

// ServeDebugContext is ServeDebug bound to a context: when ctx is
// cancelled the server shuts down gracefully (bounded drain of
// in-flight requests), so commands wired to signal contexts stop
// serving cleanly on interrupt.
func ServeDebugContext(ctx context.Context, addr string, reg *Registry) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", MetricsHandler(reg))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	d := &DebugServer{srv: srv, mux: mux, addr: ln.Addr(), done: make(chan struct{}), shutDown: make(chan struct{})}
	go func() {
		defer close(d.done)
		if errors.Is(srv.Serve(ln), http.ErrServerClosed) {
			<-d.shutDown
		}
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = d.Close()
			case <-d.done:
			}
		}()
	}
	return d, nil
}

// MetricsHandler serves a registry snapshot with format negotiation:
// JSON by default, ?format=text for the human-readable report,
// ?format=prom (or a Prometheus Accept header) for the text
// exposition. The debug server mounts it on /metrics; faure-serve
// mounts the same handler on its service mux so one scrape config
// covers both. reg may be nil (empty snapshot).
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var snap Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		switch metricsFormat(r) {
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(snap.Text()))
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = w.Write([]byte(snap.Prometheus()))
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(snap.JSON()))
		}
	})
}

// metricsFormat resolves the response format: the explicit format
// query parameter wins; otherwise a Prometheus scraper is recognised
// by its Accept header; the default stays JSON.
func metricsFormat(r *http.Request) string {
	switch r.URL.Query().Get("format") {
	case "text":
		return "text"
	case "prom", "prometheus", "openmetrics":
		return "prom"
	case "json":
		return "json"
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/openmetrics-text") ||
		strings.Contains(accept, "text/plain") {
		return "prom"
	}
	return "json"
}
