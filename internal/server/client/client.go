// Package client is the typed Go client for cexd's analysis service
// (internal/server): JSON encoding, deadline plumbing, and retry with
// exponential backoff on load-shedding responses (429), drains (503), and
// transient transport failures (connection refused/reset while the server
// restarts), honoring the server's Retry-After hint. The chaos and restart
// campaigns (cmd/cexcampaign) drive it in closed loops; embedders get the
// same behavior programmatically.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lrcex/internal/server"
)

// HTTPError is a non-2xx response, carrying the decoded error body when the
// server sent one.
type HTTPError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration // parsed Retry-After, 0 when absent
}

func (e *HTTPError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("cexd: HTTP %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("cexd: HTTP %d", e.Status)
}

// Retryable reports whether the error is worth retrying (shed or draining).
func (e *HTTPError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client talks to one cexd instance. The zero value is not usable; call New.
type Client struct {
	baseURL string
	http    *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
	rng     *rand.Rand
	brk     *breaker
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default: http.Client with a 5
// minute overall timeout; per-call contexts bound individual requests).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries sets how many times a shed/draining response is retried
// (default 4; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff (default 100ms, doubled per attempt,
// capped at 5s, ±25% jitter; a server Retry-After overrides the computed
// wait when larger).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithBreaker tunes the circuit breaker: threshold consecutive hard failures
// (5xx other than 504-partial, or transport errors) open the circuit for
// cooldown before a half-open probe. threshold <= 0 disables the breaker.
// Default: 8 failures, 10s cooldown.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) { c.brk = newBreaker(threshold, cooldown) }
}

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8372").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    &http.Client{Timeout: 5 * time.Minute},
		retries: 4,
		backoff: 100 * time.Millisecond,
		maxWait: 5 * time.Second,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		brk:     newBreaker(8, 10*time.Second),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Analyze submits a grammar and returns its report. Partial reports
// (deadline expired server-side, HTTP 504) are returned alongside an
// *HTTPError with Status 504 so callers can use what was found; every other
// non-2xx response returns a nil report. Shed (429) and draining (503)
// responses are retried with backoff before giving up.
//
// The circuit breaker composes with the retry loop: while the circuit is
// open, attempts don't reach the wire — if retries remain, the client waits
// out max(backoff, remaining cooldown) and tries again (the breaker may
// admit a half-open probe by then); when retries are exhausted the
// *CircuitOpenError itself is returned, carrying the remaining cooldown.
func (c *Client) Analyze(ctx context.Context, req *server.AnalyzeRequest) (*server.AnalyzeResponse, error) {
	return roundTrip[server.AnalyzeResponse](c, ctx, "/v1/analyze", req,
		func(r *server.AnalyzeResponse) bool { return r.Partial })
}

// Repair submits a grammar to /v1/repair and returns the combined analysis +
// advisory report. Retry, backoff, partial-504, and circuit-breaker behavior
// are identical to Analyze — both run through the same round trip.
func (c *Client) Repair(ctx context.Context, req *server.RepairRequest) (*server.RepairResponse, error) {
	return roundTrip[server.RepairResponse](c, ctx, "/v1/repair", req,
		func(r *server.RepairResponse) bool { return r.Partial })
}

// roundTrip is the shared request loop: marshal once, then attempt until
// success, a non-retryable failure, or retries run out, honoring the breaker
// and the server's Retry-After hint. isPartial reports whether a decoded 504
// body is a meaningful partial report (returned alongside the *HTTPError)
// rather than a plain error envelope.
func roundTrip[T any](c *Client, ctx context.Context, path string, req any, isPartial func(*T) bool) (*T, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cexd: encoding request: %w", err)
	}
	var last error
	for attempt := 0; ; attempt++ {
		if berr := c.brk.allow(); berr != nil {
			if attempt >= c.retries {
				return nil, berr
			}
			coe := berr.(*CircuitOpenError)
			wait := c.backoffFor(attempt, coe.Remaining)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		resp, herr := post[T](c, ctx, path, body, isPartial)
		// Client-side cancellation says nothing about server health: release
		// the breaker slot without counting a failure.
		if herr != nil && ctx.Err() != nil {
			c.brk.record(false)
			return nil, ctx.Err()
		}
		c.brk.record(hardFailure(herr))
		if herr == nil {
			return resp, nil
		}
		var he *HTTPError
		isHTTP := asHTTPError(herr, &he)
		if isHTTP && he.Status == http.StatusGatewayTimeout {
			return resp, herr // partial report: both halves meaningful
		}
		last = herr
		retryable := (isHTTP && he.Retryable()) || (!isHTTP && transientTransportError(herr))
		if !retryable || attempt >= c.retries {
			return nil, last
		}
		var retryAfter time.Duration
		if isHTTP {
			retryAfter = he.RetryAfter
		}
		wait := c.backoffFor(attempt, retryAfter)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func asHTTPError(err error, out **HTTPError) bool {
	he, ok := err.(*HTTPError)
	if ok {
		*out = he
	}
	return ok
}

// transientTransportError reports whether a transport-level failure looks
// like a server that is restarting rather than one that is wrong: connection
// refused (the listener is down, perhaps between SIGKILL and the supervisor's
// restart), connection reset / broken pipe / torn EOF (the process died with
// our request in flight). These retry with the same jittered backoff as a
// shed response — a kill/restart window is operationally a drain the server
// never got to announce. Errors here pass through *url.Error, *net.OpError,
// and *os.SyscallError wrapping, so errors.Is does the unwrapping.
func transientTransportError(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// backoffFor computes the wait before retry #attempt: exponential from the
// base with ±25% jitter, capped, and never below the server's Retry-After.
func (c *Client) backoffFor(attempt int, retryAfter time.Duration) time.Duration {
	d := c.backoff << uint(attempt)
	if d > c.maxWait {
		d = c.maxWait
	}
	// ±25% jitter decorrelates synchronized retries from many clients.
	jitter := time.Duration(c.rng.Int63n(int64(d)/2+1)) - d/4
	d += jitter
	if retryAfter > d {
		d = retryAfter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// post sends one request and decodes the response; non-2xx (other than the
// partial-report 504) yields *HTTPError.
func post[T any](c *Client, ctx context.Context, path string, body []byte, isPartial func(*T) bool) (*T, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()

	if hres.StatusCode == http.StatusOK {
		var out T
		if err := json.NewDecoder(hres.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("cexd: decoding response: %w", err)
		}
		return &out, nil
	}
	he := &HTTPError{Status: hres.StatusCode, RetryAfter: parseRetryAfter(hres.Header.Get("Retry-After"))}
	raw, _ := io.ReadAll(io.LimitReader(hres.Body, 1<<20))
	if hres.StatusCode == http.StatusGatewayTimeout {
		// Partial report: body is a report envelope, not an ErrorResponse.
		var out T
		if err := json.Unmarshal(raw, &out); err == nil && isPartial(&out) {
			he.Code, he.Message = "deadline", "partial report: request deadline expired mid-search"
			return &out, he
		}
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(raw, &er); err == nil && er.Error != "" {
		he.Code, he.Message = er.Code, er.Error
		if he.RetryAfter == 0 && er.RetryAfterMS > 0 {
			he.RetryAfter = time.Duration(er.RetryAfterMS) * time.Millisecond
		}
	} else {
		he.Message = strings.TrimSpace(string(raw))
	}
	return nil, he
}

// Health checks /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	res, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	io.Copy(io.Discard, res.Body)
	if res.StatusCode != http.StatusOK {
		return &HTTPError{Status: res.StatusCode}
	}
	return nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	res, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", &HTTPError{Status: res.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}

// maxRetryAfter clamps the server's Retry-After hint: a misconfigured (or
// hostile) server must not be able to park a client for an hour with one
// header. The backoff loop still applies its own cap on top.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter parses both RFC 9110 forms of Retry-After — delta-seconds
// ("120") and HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT") — clamping the
// result to [0, maxRetryAfter]. Unparseable values are 0 (no hint).
func parseRetryAfter(v string) time.Duration {
	return parseRetryAfterAt(v, time.Now())
}

// parseRetryAfterAt is parseRetryAfter against an explicit clock (tests pin
// the HTTP-date arithmetic with it).
func parseRetryAfterAt(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = t.Sub(now)
		if d < 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}
