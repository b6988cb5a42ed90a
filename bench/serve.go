package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/server"
)

// hotClients is serve_hot's closed-loop client count, one per CPU of the
// 2-core reference box. serve_cold runs one client, so that each request's
// latency is its own analysis and not a wait behind another one.
const hotClients = 2

// service is an in-process cexd listening on loopback.
type service struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func startService(cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(cfg)
	svc := &service{srv: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(svc.done)
		_ = svc.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return svc, nil
}

// stop closes the listener, waits for the serving goroutine, and drains the
// analysis service.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// serverConfig runs every analysis one conflict at a time, as the library
// workloads do.
func serverConfig(stateDir string) server.Config {
	return server.Config{
		Finder:           core.Options{Parallelism: 1},
		StateDir:         stateDir,
		SnapshotInterval: time.Hour, // no background snapshot inside the window
	}
}

// newClient returns a client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// requestBody is one /v1/analyze request under the deterministic serve budget.
func requestBody(name, src string) ([]byte, error) {
	return json.Marshal(server.AnalyzeRequest{
		Name:    name,
		Grammar: src,
		Options: server.AnalyzeOptions{NoTimeout: true, MaxConfigs: serveBudget, Parallelism: 1},
	})
}

// post sends one analysis request and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// responseHead is a response up to its timings object, the only part of a
// cached answer that differs between requests. The timings are encoded last.
func responseHead(b []byte) []byte {
	if i := bytes.LastIndex(b, []byte(`"timings":`)); i >= 0 {
		return b[:i]
	}
	return b
}

// loopTally is what one closed-loop client measured.
type loopTally struct {
	lat                     []float64 // ms, one per request
	attempted, failed, hits int       // hits: answered from the result cache
	shed, partial           int
	bytes                   int64
	gate                    []string
}

func (t *loopTally) merge(o *loopTally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.hits += o.hits
	t.shed += o.shed
	t.partial += o.partial
	t.bytes += o.bytes
	t.gate = append(t.gate, o.gate...)
}

func (t *loopTally) count(status int) {
	switch status {
	case http.StatusTooManyRequests:
		t.shed++
	case http.StatusGatewayTimeout:
		t.partial++
	}
}

func (t *loopTally) failf(format string, args ...any) {
	t.failed++
	if len(t.gate) < 5 {
		t.gate = append(t.gate, fmt.Sprintf(format, args...))
	}
}

// report fills the end-to-end metrics and the server ratios of a window.
func (t *loopTally) report(o *outcome, window time.Duration, tailQ float64) {
	o.attempted += t.attempted
	o.failed += t.failed
	for _, g := range t.gate {
		o.failf("%s", g)
	}
	o.e2e["throughput_per_s"] = float64(t.attempted) / window.Seconds()
	o.e2e["latency_p50_ms"] = quantile(t.lat, 0.50)
	o.e2e["latency_tail_ms"] = quantile(t.lat, tailQ)
	o.e2e["peak_rss_mb"] = peakRSSMiB()
	if t.attempted > 0 {
		n := float64(t.attempted)
		o.layer["server.response_kb"] = float64(t.bytes) / n / 1024
		o.layer["server.result_hit_ratio"] = float64(t.hits) / n
		// A result-cache hit builds no table either, and serve_cold fails
		// any answer that came from a cache, so the requests that skipped
		// the table build are exactly the hits.
		o.layer["server.compile_hit_ratio"] = float64(t.hits) / n
	}
	o.layer["server.shed"] = float64(t.shed)
	o.layer["server.partial"] = float64(t.partial)
}

// hotState is serve_hot's set-up: a server holding every grammar's report in
// its result cache, and the cached answer each request must reproduce.
type hotState struct {
	svc               *service
	bodies, want      [][]byte
	states, conflicts int
}

func setUpHot(es []entry) (*hotState, error) {
	svc, err := startService(serverConfig(""))
	if err != nil {
		return nil, err
	}
	h := &hotState{svc: svc}
	if err := h.warm(es); err != nil {
		return nil, errors.Join(err, svc.stop())
	}
	return h, nil
}

// warm analyzes every grammar once, then asks again for the cached answer.
func (h *hotState) warm(es []entry) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for _, e := range es {
		body, err := requestBody(e.name, e.src)
		if err != nil {
			return err
		}
		if status, err := post(c, h.svc.url, body, &buf); err != nil || status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d, %v", e.name, status, err)
		}
		var first struct {
			States    int `json:"states"`
			Conflicts int `json:"conflict_count"`
		}
		if err := json.Unmarshal(buf.Bytes(), &first); err != nil {
			return fmt.Errorf("warming %s: %w", e.name, err)
		}
		h.states += first.States
		h.conflicts += first.Conflicts
		if status, err := post(c, h.svc.url, body, &buf); err != nil || status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d, %v", e.name, status, err)
		}
		head := slices.Clone(responseHead(buf.Bytes()))
		if !bytes.Contains(head, []byte(`"cached":true`)) {
			return fmt.Errorf("warming %s: second request was not a cache hit", e.name)
		}
		h.bodies = append(h.bodies, body)
		h.want = append(h.want, head)
	}
	return nil
}

// runServeHot drives a warm cexd with hotClients closed-loop clients, each
// drawing grammars uniformly with its own seeded generator. Every measured
// request must be a result-cache hit byte-identical to the warm answer.
func runServeHot(cfg *config) (*outcome, error) {
	es := corpusEntries(cfg.smoke)
	h, setupS, err := setUp(func() (*hotState, error) { return setUpHot(es) },
		func(h *hotState) { _ = h.svc.stop() })
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: values{"setup_s": setupS}, layer: values{}}
	mem := startMemProbe()
	start := time.Now()
	deadline := start.Add(cfg.window)
	tallies := make([]*loopTally, hotClients)
	var wg sync.WaitGroup
	for id := range tallies {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tallies[id] = h.client(deadline, rand.New(rand.NewSource(cfg.seed*1_000_003+int64(id))))
		}(id)
	}
	wg.Wait()
	window := time.Since(start)
	mem.report(o.layer)
	total := &loopTally{}
	for _, t := range tallies {
		total.merge(t)
	}
	total.report(o, window, 0.99)

	if cfg.traced {
		o.layer["lr.states"] = float64(h.states)
		o.layer["lr.conflicts"] = float64(h.conflicts)
		o.layer["gdl.fingerprint_us_p50"] = fingerprintP50(es)
		rng := rand.New(rand.NewSource(cfg.seed))
		p50, p99, err := handlerProbe(h.svc.srv.Handler(), h.bodies, rng, probeCount(cfg))
		if err != nil {
			o.failf("handler probe: %v", err)
		}
		o.layer["server.handler_us_p50"], o.layer["server.handler_us_p99"] = p50, p99
		lb, err := loopbackP50(h.svc.url, probeCount(cfg))
		if err != nil {
			o.failf("loopback probe: %v", err)
		}
		o.layer["server.loopback_us_p50"] = lb
	}
	if err := h.svc.stop(); err != nil {
		o.failf("shutdown: %v", err)
	}
	return o, nil
}

func (h *hotState) client(deadline time.Time, rng *rand.Rand) *loopTally {
	c := newClient()
	defer c.CloseIdleConnections()
	t := &loopTally{}
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		i := rng.Intn(len(h.bodies))
		start := time.Now()
		status, err := post(c, h.svc.url, h.bodies[i], &buf)
		t.lat = append(t.lat, ms(time.Since(start)))
		t.attempted++
		t.bytes += int64(buf.Len())
		t.count(status)
		switch {
		case err != nil || status != http.StatusOK:
			t.failf("request %d: status %d, %v", t.attempted, status, err)
		case !bytes.Equal(responseHead(buf.Bytes()), h.want[i]):
			t.failf("request %d: response differs from the cached answer", t.attempted)
		default:
			t.hits++
		}
	}
	return t
}

// probeCount is how many calls each traced-run probe times.
func probeCount(cfg *config) int {
	if cfg.smoke {
		return 50
	}
	return 2000
}

// handlerProbe times Handler().ServeHTTP on seeded cached requests, without
// a network in between.
func handlerProbe(h http.Handler, bodies [][]byte, rng *rand.Rand, n int) (p50, p99 float64, err error) {
	lat := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(bodies[rng.Intn(len(bodies))]))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, us(time.Since(start)))
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("status %d", rec.Code)
		}
	}
	return quantile(lat, 0.50), quantile(lat, 0.99), nil
}

// loopbackP50 is the median round trip of GET /healthz on one keep-alive
// loopback connection: the HTTP and TCP cost with no analysis behind it.
func loopbackP50(url string, n int) (float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	lat := make([]float64, 0, n)
	var buf bytes.Buffer
	for k := 0; k < n; k++ {
		start := time.Now()
		resp, err := c.Get(url + "/healthz")
		if err != nil {
			return 0, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		lat = append(lat, us(time.Since(start)))
	}
	return quantile(lat, 0.50), nil
}

// fingerprintP50 is the median time of one gdl.Fingerprint call over the
// workload's sources.
func fingerprintP50(es []entry) float64 {
	const rounds = 20
	lat := make([]float64, 0, rounds*len(es))
	for r := 0; r < rounds; r++ {
		for _, e := range es {
			start := time.Now()
			_, _ = gdl.Fingerprint(e.name, e.src, gdl.Limits{}) // corpus sources always lex
			lat = append(lat, us(time.Since(start)))
		}
	}
	return quantile(lat, 0.50)
}

// coldEntries is the serve_cold mix: the corpus without Java.2, whose search
// alone would fill the window (table1_batch measures it).
func coldEntries(smoke bool) []entry {
	return slices.DeleteFunc(corpusEntries(smoke), func(e entry) bool { return e.name == "Java.2" })
}

// withToken prefixes a source with a fresh unused terminal. That changes its
// fingerprint, so the request misses both of cexd's caches, and leaves its
// conflicts as they were. The library reference carries a token too, so
// its symbol numbering matches the requests'.
func withToken(e entry, tag string) entry {
	e.src = "%token __BENCH_" + tag + "\n" + e.src
	return e
}

// coldState is serve_cold's set-up: the library reference answers, and a
// server with durable state in a fresh directory.
type coldState struct {
	svc   *service
	dir   string
	kinds [][]string // per entry: example kinds in conflict order
	refMS []float64  // per entry: the library pipeline's time
	tally *libTally
}

func setUpCold(cfg *config, es []entry) (*coldState, error) {
	c := &coldState{tally: newLibTally(es)}
	sw := newStopwatch(cfg.traced)
	for i, e := range es {
		r, err := libraryPipeline(withToken(e, "ref"), searchOptions(serveBudget), sw)
		if err != nil {
			return nil, err
		}
		kinds := make([]string, len(r.exs))
		for k, ex := range r.exs {
			kinds[k] = ex.Kind.String()
		}
		c.kinds = append(c.kinds, kinds)
		c.refMS = append(c.refMS, ms(r.st.total))
		c.tally.add(i, r)
	}
	dir, err := os.MkdirTemp("", "cexbench-state-")
	if err != nil {
		return nil, err
	}
	c.dir = dir
	if c.svc, err = startService(serverConfig(dir)); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	return c, nil
}

func (c *coldState) close() error {
	var err error
	if c.svc != nil {
		err = c.svc.stop()
	}
	return errors.Join(err, os.RemoveAll(c.dir))
}

// runServeCold drives a cexd with durable state from one closed-loop
// client through seeded permutations of coldEntries, completing the
// permutation in flight when the window ends so every grammar appears
// equally often. Each source carries a unique token, so every request
// parses, compiles, searches, inserts into both caches (evicting past their
// capacity) and appends to the journal. Example kinds and conflict counts
// must match the library reference.
func runServeCold(cfg *config) (*outcome, error) {
	es := coldEntries(cfg.smoke)
	cs, setupS, err := setUp(func() (*coldState, error) { return setUpCold(cfg, es) },
		func(c *coldState) { _ = c.close() })
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: values{"setup_s": setupS}, layer: values{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	c := newClient()
	t := &loopTally{}
	var over []float64
	var buf bytes.Buffer
	mem := startMemProbe()
	start := time.Now()
	for time.Since(start) < cfg.window {
		for _, i := range rng.Perm(len(es)) {
			body, err := requestBody(es[i].name, withToken(es[i], fmt.Sprintf("%d_%d", cfg.seed, t.attempted)).src)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			status, err := post(c, cs.svc.url, body, &buf)
			lat := ms(time.Since(t0))
			t.lat = append(t.lat, lat)
			over = append(over, lat-cs.refMS[i])
			t.attempted++
			t.bytes += int64(buf.Len())
			t.count(status)
			if err != nil || status != http.StatusOK {
				t.failf("%s: status %d, %v", es[i].name, status, err)
				continue
			}
			if err := cs.check(i, buf.Bytes()); err != nil {
				t.failf("%s: %v", es[i].name, err)
			}
		}
	}
	window := time.Since(start)
	mem.report(o.layer)
	c.CloseIdleConnections()
	t.report(o, window, 0.99)

	if cfg.traced {
		floor, err := floorFinds(withTokens(es))
		if err != nil {
			return nil, err
		}
		cs.tally.layers(o.layer, floor)
		o.layer["gdl.fingerprint_us_p50"] = fingerprintP50(withTokens(es))
		o.layer["server.overhead_ms_p50"] = quantile(over, 0.50)
		if err := persistProbe(cs, o.layer); err != nil {
			o.failf("persist probe: %v", err)
		}
	}
	if err := cs.close(); err != nil {
		o.failf("shutdown: %v", err)
	}
	return o, nil
}

func withTokens(es []entry) []entry {
	out := make([]entry, len(es))
	for i, e := range es {
		out[i] = withToken(e, "ref")
	}
	return out
}

// check compares one cold response with the library reference.
func (c *coldState) check(i int, body []byte) error {
	var resp struct {
		Cached        bool `json:"cached"`
		CompileCached bool `json:"compile_cached"`
		Conflicts     int  `json:"conflict_count"`
		Examples      []struct {
			Kind string `json:"kind"`
		} `json:"examples"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Cached || resp.CompileCached {
		return errors.New("answered from a cache")
	}
	if resp.Conflicts != len(c.kinds[i]) || len(resp.Examples) != len(c.kinds[i]) {
		return fmt.Errorf("%d conflicts and %d examples, want %d", resp.Conflicts, len(resp.Examples), len(c.kinds[i]))
	}
	for k, ex := range resp.Examples {
		if ex.Kind != c.kinds[i][k] {
			return fmt.Errorf("conflict %d: kind %q, want %q", k, ex.Kind, c.kinds[i][k])
		}
	}
	return nil
}

// persistProbe measures the state directory the window filled, then drains
// the server and times a fresh server.New booting from it.
func persistProbe(cs *coldState, v values) error {
	var size int64
	err := filepath.WalkDir(cs.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	v["persist.journal_bytes"] = float64(size)
	err = cs.svc.stop()
	cs.svc = nil
	if err != nil {
		return err
	}
	start := time.Now()
	s := server.New(serverConfig(cs.dir))
	v["persist.boot_ms"] = ms(time.Since(start))
	loaded, err := scrape(s.Handler(), "cexd_persist_records_loaded_total")
	v["persist.loaded"] = loaded
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return errors.Join(err, s.Shutdown(ctx))
}

// scrape reads one unlabelled sample from the handler's /metrics page.
func scrape(h http.Handler, name string) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}
