package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lrcex/internal/corpus"
	"lrcex/internal/server"
)

// captureStdout points the report's stdout at a buffer for one test.
func captureStdout(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	t.Cleanup(func() { stdout = old })
	return &buf
}

func TestWriteReportEmptyOutIsStdout(t *testing.T) {
	buf := captureStdout(t)
	rep := map[string]int{"cells": 3}
	if err := writeReport("", rep); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil || got["cells"] != 3 {
		t.Fatalf("stdout holds %q (%v), want the report", buf.String(), err)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	buf.Reset()
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("a report written to -out %s also went to stdout: %q", path, buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &got); err != nil || got["cells"] != 3 {
		t.Fatalf("%s holds %q (%v), want the report", path, data, err)
	}
}

func TestSmokeCorpus(t *testing.T) {
	names := func(es []*corpus.Entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}
	for _, c := range []struct {
		campaign string
		smoke    []string
	}{
		{"chaos", corpus.Names()},
		{"diff", corpus.SmokeNames()},
		{"fix", corpus.SmokeNames()},
		{"restart", corpus.SmokeNames()},
		{"trace", []string{"figure1"}},
	} {
		if got := names(campaignCorpus(c.campaign, true)); !reflect.DeepEqual(got, c.smoke) {
			t.Errorf("%s -smoke runs %v, want %v", c.campaign, got, c.smoke)
		}
		if got := names(campaignCorpus(c.campaign, false)); !reflect.DeepEqual(got, corpus.Names()) {
			t.Errorf("%s runs %v without -smoke, want the full corpus", c.campaign, got)
		}
	}
}

func TestVerdictFailsAfterWritingReport(t *testing.T) {
	captureStdout(t)
	path := filepath.Join(t.TempDir(), "report.json")
	if code := verdict(path, map[string]bool{"identical": false}, []string{"span tree for figure1 diverges at j=8"}); code == 0 {
		t.Fatal("verdict with a violation exited 0")
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Contains(data, []byte(`"identical": false`)) {
		t.Fatalf("failed run left report %q (%v), want it written", data, err)
	}
	if code := verdict(path, map[string]bool{"identical": true}, nil); code != 0 {
		t.Fatalf("verdict without violations exited %d", code)
	}
}

// TestChaosTallyCountsCachedDegradationOnce pins the degraded_conflicts
// rule: a cache hit replays the degradation of the analysis it was cached
// from and adds nothing; the analysis that ran does.
func TestChaosTallyCountsCachedDegradationOnce(t *testing.T) {
	var rep chaosReport
	tally := chaosTally{rep: &rep}
	tally.record("figure1", 1, &server.AnalyzeResponse{Degraded: 2}, nil)
	tally.record("figure1", 1, &server.AnalyzeResponse{Degraded: 2, Cached: true}, nil)
	tally.record("figure1", 1, &server.AnalyzeResponse{Degraded: 2, Cached: true}, nil)
	if rep.Degraded != 2 {
		t.Errorf("degraded_conflicts = %d over one degraded analysis served thrice, want 2", rep.Degraded)
	}
	if rep.Outcomes.OK != 1 || rep.Outcomes.Cached != 2 || len(tally.lat) != 3 {
		t.Errorf("outcomes %+v over %d requests, want 1 ok and 2 cached over 3", rep.Outcomes, len(tally.lat))
	}
}
