package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/repair"
	"lrcex/internal/trace"
)

// RepairOptions is the wire form of the advisor's tuning knobs — the same
// two knobs cexgen and cexfix expose as -repair-budget and -max-candidates
// (the cliflags parity test pins the pairing). Zero values select the
// advisor's defaults.
type RepairOptions struct {
	// RepairBudget is the deterministic MaxConfigs budget for the advisor's
	// searches: the up-front analysis reuse and the bounded re-analysis of
	// each validated patch (0 = advisor default).
	RepairBudget int `json:"repair_budget,omitempty"`
	// MaxCandidates caps the candidates synthesized per conflict
	// (0 = advisor default).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

func (o RepairOptions) validate() error {
	if o.RepairBudget < 0 {
		return fmt.Errorf("repair_budget must be >= 0, got %d", o.RepairBudget)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("max_candidates must be >= 0, got %d", o.MaxCandidates)
	}
	return nil
}

// repairKey is the canonical report-affecting key fragment: together with the
// grammar fingerprint and the analyze optionsKey it names a repair report
// uniquely, so the result cache never serves a report computed under
// different advisor settings.
func (o RepairOptions) repairKey() string {
	return fmt.Sprintf("rb%d|rc%d", o.RepairBudget, o.MaxCandidates)
}

// advisorOptions maps the wire options onto repair.Options. Parallelism is
// the request's search parallelism (wall-clock only — the advisor's report is
// byte-identical at any worker count); compile is the server's cache-aware
// recompilation hook.
func (o RepairOptions) advisorOptions(parallelism int, compile repair.CompileFunc) repair.Options {
	return repair.Options{
		Budget:        o.RepairBudget,
		MaxCandidates: o.MaxCandidates,
		Parallelism:   parallelism,
		Compile:       compile,
	}
}

// RepairRequest is the body of POST /v1/repair: an analysis request plus the
// advisor's own options.
type RepairRequest struct {
	// Name labels the grammar in reports and errors (optional).
	Name string `json:"name,omitempty"`
	// Grammar is the GDL source (required).
	Grammar string `json:"grammar"`
	// Options tunes the underlying analysis exactly like /v1/analyze.
	Options AnalyzeOptions `json:"options"`
	// Repair tunes the advisor.
	Repair RepairOptions `json:"repair"`
}

// RepairResponse is the body of a successful (or partial) repair: the full
// analysis report plus the advisory report. On a 504 the analysis half may
// itself be partial, and Repair reflects however far validation got.
type RepairResponse struct {
	AnalyzeResponse
	Repair *repair.Result `json:"repair"`
}

// handleRepair is /v1/repair: the analyze pipeline (decode → fingerprint →
// cache → parse → singleflight → bounded queue) with the repair advisor run
// worker-side on the analysis result. Shedding, deadlines, and the watchdog
// behave exactly as on /v1/analyze; complete reports are cached under
// fingerprint × analyze options × repair options.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.health.request()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, start, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", outcomeError)
		return
	}
	if s.draining.Load() {
		s.unavailable(w, start)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req RepairRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			te := &RequestTooLargeError{Limit: tooLarge.Limit}
			s.fail(w, start, http.StatusRequestEntityTooLarge, "too_large", te.Error(), outcomeTooLarge)
			return
		}
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_json", "malformed JSON body: "+err.Error(), outcomeInvalid)
		return
	}
	if req.Grammar == "" {
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_json", "missing \"grammar\" field", outcomeInvalid)
		return
	}
	if err := req.Options.validate(); err != nil {
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_options", err.Error(), outcomeInvalid)
		return
	}
	if err := req.Repair.validate(); err != nil {
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_options", err.Error(), outcomeInvalid)
		return
	}
	name := req.Name
	if name == "" {
		name = "grammar"
	}

	fp, err := gdl.Fingerprint(name, req.Grammar, s.cfg.Limits)
	if err != nil {
		s.failParse(w, start, err)
		return
	}
	key := "repair|" + fp + "|" + req.Options.optionsKey() + "|" + req.Repair.repairKey()
	lookup := trace.Child(r.Context(), "cache.repair")
	if cached, ok := s.cache.get(key); ok {
		if !faults.Should(faults.ServerCache) {
			lookup.Set("hit", true)
			lookup.End()
			s.m.repairCacheHits.Add(1)
			resp := *cached.(*RepairResponse) // shallow copy: slices are shared, immutable
			resp.Cached = true
			resp.Timings = Timings{} // no phase ran; respondRepair stamps TotalMS
			s.respondRepair(w, start, http.StatusOK, &resp, outcomeCacheHit)
			return
		}
	}
	lookup.Set("hit", false)
	lookup.End()

	var g *grammar.Grammar
	var compiled *core.Compiled
	var parseMS float64
	clookup := trace.Child(r.Context(), "cache.compile")
	if ce, ok := s.compile.get(fp); ok {
		clookup.Set("hit", true)
		clookup.End()
		g, compiled = ce.g, ce.c
	} else {
		clookup.Set("hit", false)
		clookup.End()
		parseStart := time.Now()
		psp := trace.Child(r.Context(), "gdl.parse")
		g, err = gdl.ParseLimited(name, req.Grammar, s.cfg.Limits)
		if err != nil {
			psp.Set("error", err.Error())
			psp.End()
			s.failParse(w, start, err)
			return
		}
		psp.Set("productions", g.NumProductions())
		psp.End()
		parseMS = msSince(parseStart)
	}

	deadline := s.cfg.DefaultDeadline
	if req.Options.DeadlineMS > 0 {
		deadline = time.Duration(req.Options.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	res, err, shared := s.execute(r.Context(), key, g, name, fp, req.Grammar, compiled, req.Options, &req.Repair, deadline, parseMS)
	switch {
	case errors.Is(err, errOverloaded):
		s.m.shed.Add(1)
		s.health.shed()
		s.log.Warn("request shed: queue full",
			"request_id", RequestID(r.Context()), "grammar", name,
			"queue_depth", len(s.jobs), "queue_capacity", cap(s.jobs))
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.fail(w, start, http.StatusTooManyRequests, "overloaded",
			"analysis queue full; retry later", outcomeShed)
		return
	case errors.Is(err, errDraining):
		s.unavailable(w, start)
		return
	case err != nil:
		s.fail(w, start, http.StatusInternalServerError, "internal", err.Error(), outcomeError)
		return
	}
	if shared {
		s.m.collapsed.Add(1)
	}

	switch res.status {
	case http.StatusOK:
		rr := &RepairResponse{AnalyzeResponse: *res.resp, Repair: res.repair}
		s.addResult(r.Context(), key, rr)
		s.respondRepair(w, start, http.StatusOK, rr, outcomeOK)
	case http.StatusGatewayTimeout:
		// Partial reports are never cached: a longer-deadline retry must
		// re-run the search and the validation.
		rr := &RepairResponse{AnalyzeResponse: *res.resp, Repair: res.repair}
		s.respondRepair(w, start, http.StatusGatewayTimeout, rr, outcomePartial)
	case http.StatusServiceUnavailable:
		s.unavailable(w, start)
	default:
		msg := "repair failed"
		if res.err != nil {
			msg = res.err.Error()
		}
		s.fail(w, start, http.StatusInternalServerError, "internal", msg, outcomeError)
	}
}

// respondRepair mirrors respond for RepairResponse bodies, counting the
// suggestions served (cache hits included — a served suggestion is a served
// suggestion however it was computed).
func (s *Server) respondRepair(w http.ResponseWriter, start time.Time, status int, resp *RepairResponse, outcome string) {
	if resp.Repair != nil {
		served := 0
		for _, adv := range resp.Repair.PerConflict {
			served += len(adv.Suggestions)
		}
		s.m.repairSuggestions.Add(int64(served))
	}
	out := *resp
	out.Timings.TotalMS = msSince(start)
	s.m.observe(outcome, time.Since(start))
	writeJSON(w, status, &out)
}
