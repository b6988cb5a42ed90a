package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// cachedReport is one result-cache entry: a complete report encoded once, at
// insert, exactly as a cache hit sends it — "cached":true and zero timings.
// It is immutable. A hit writes body with its own timings object in place of
// the zero one; the journal and the snapshot persist body as it is.
type cachedReport struct {
	body    []byte // json.Encoder output, trailing newline included
	timings int    // offset of the zero timings value in body
	served  int    // repair suggestions the report serves (0 on /v1/analyze)
}

// zeroTimings is the timings value every cached body holds. A repair report
// encodes "repair" after "timings", so the value is found by its key, not
// assumed to close the body.
var zeroTimings, _ = json.Marshal(Timings{})

// timingsField prefixes the zero timings value. No string value can contain
// it (an encoded string escapes its quotes), and the top-level "timings" key
// precedes every field that could nest another, so its first occurrence is
// the report's own.
var timingsField = append([]byte(`"timings":`), zeroTimings...)

// newCachedReport encodes report, an *AnalyzeResponse or *RepairResponse,
// as a cache hit serves it.
func newCachedReport(report any) (*cachedReport, error) {
	out, body, served := wireCopy(report)
	out.Cached = true
	out.Timings = Timings{}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	i := bytes.Index(b, timingsField)
	if i < 0 {
		return nil, errors.New("encoded report has no timings field")
	}
	return &cachedReport{body: b, timings: i + len(timingsField) - len(zeroTimings), served: served}, nil
}

// wireCopy copies report, an *AnalyzeResponse or *RepairResponse, so the
// caller can stamp per-request fields on out without mutating a cached or
// singleflight-shared report. body is the value to encode (out itself, or
// its embedded AnalyzeResponse on /v1/analyze); served counts the repair
// suggestions it carries.
func wireCopy(report any) (out *RepairResponse, body any, served int) {
	out = new(RepairResponse)
	body = &out.AnalyzeResponse
	switch r := report.(type) {
	case *AnalyzeResponse:
		out.AnalyzeResponse = *r
	case *RepairResponse:
		*out, body = *r, out
		if r.Repair != nil {
			for _, adv := range r.Repair.PerConflict {
				served += len(adv.Suggestions)
			}
		}
	}
	return out, body, served
}

// respondCached writes a result-cache hit: the stored bytes, with only this
// request's timings encoded. A hit ran no phase, so it reports only its own
// total.
func (s *Server) respondCached(w http.ResponseWriter, start time.Time, e *cachedReport) {
	s.m.repairSuggestions.Add(int64(e.served))
	total := time.Since(start)
	timings, _ := json.Marshal(Timings{TotalMS: millis(total)})
	s.m.observe(outcomeCacheHit, total)
	rest := e.body[e.timings+len(zeroTimings):]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(e.timings+len(timings)+len(rest)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body[:e.timings])
	_, _ = w.Write(timings)
	_, _ = w.Write(rest)
}
