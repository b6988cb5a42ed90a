package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"lrcex/internal/faults"
	"lrcex/internal/trace"
)

// Request-ID middleware and the handler-level panic backstop. Every request
// gets an X-Request-ID (echoed on the response and attached to panic bodies)
// so a 500 seen by a client can be correlated with the server's log line and
// stack trace. The backstop is the outermost rung of the service's
// degradation ladder: worker panics are already contained per job (see run),
// so anything reaching here is a bug in the handlers themselves — it must
// still produce a well-formed JSON 500, not a hung or half-written response.

// ridBase decorrelates request IDs across process restarts without needing
// coordination: a per-process prefix from the clock and pid, plus an atomic
// sequence number.
var (
	ridBase = func() uint64 {
		x := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
		// splitmix64 finalizer, so consecutive restarts don't share prefixes.
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}()
	ridSeq atomic.Uint64
)

type requestIDKey struct{}

// nextRequestID mints a process-unique request ID.
func nextRequestID() string {
	return fmt.Sprintf("%08x-%06d", uint32(ridBase), ridSeq.Add(1))
}

// RequestID returns the request ID the middleware attached to ctx ("" when
// the request did not pass through the middleware).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder lets the panic backstop know whether the handler already
// committed a status line — if it did, the response cannot be rewritten and
// the middleware settles for closing the connection.
type statusRecorder struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.wrote = true
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
	}
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// withRequestID wraps h with the request-ID, tracing, and panic-recovery
// middleware. Analysis requests (/v1/...) get a trace rooted at an
// "http.request" span whose trace ID is the request ID, so the X-Request-ID
// header, the structured log lines, and the /debug/traces entry all share
// one key.
func (s *Server) withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := nextRequestID()
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			// One completion line per analysis request, same key as the
			// X-Request-ID header and the /debug/traces entry. Scrape
			// endpoints (/metrics, /healthz) stay quiet.
			// The root span (when a tracer is set) and the log line's
			// dur_ms share the request's one pair of clock readings.
			var req trace.Timer
			ctx, req = trace.Root(ctx, s.cfg.Tracer, id, "http.request")
			// Guarded: boxing the attribute values allocates even when the
			// span is nil.
			if root := req.Span(); root != nil {
				root.Set("method", r.Method)
				root.Set("path", r.URL.Path)
			}
			defer func() {
				if root := req.Span(); root != nil {
					root.SetVolatile("status", rec.status)
				}
				dur := req.End()
				s.log.Info("request",
					"request_id", id, "method", r.Method, "path", r.URL.Path,
					"status", rec.status, "dur_ms", millis(dur))
			}()
		}
		r = r.WithContext(ctx)
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			s.m.panics.Add(1)
			s.health.panicked()
			s.log.Error("panic in handler",
				"request_id", id, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(faults.Stack()))
			if !rec.wrote {
				writeJSON(rec, http.StatusInternalServerError, &ErrorResponse{
					Error:     fmt.Sprintf("internal panic (request %s)", id),
					Code:      "panic",
					RequestID: id,
				})
			}
		}()
		h.ServeHTTP(rec, r)
	})
}
