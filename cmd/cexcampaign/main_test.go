package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
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

// TestChaosCountsFollowerDegradationOnce pins the degraded_conflicts rule
// on the case that double-counted under a per-response sum: a singleflight
// follower joins a degraded flight, both responses carry the flight's
// degraded count uncached, and the chaos figure — the server's own counter —
// counts the analysis once.
func TestChaosCountsFollowerDegradationOnce(t *testing.T) {
	base, stop, err := startInProcess(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c := client.New(base, client.WithRetries(0))
	ctx := context.Background()
	entry := func(name string) *corpus.Entry {
		e, ok := corpus.Get(name)
		if !ok {
			t.Fatalf("no corpus grammar %s", name)
		}
		return e
	}

	// The one worker is held by an unbudgeted Java.2 search until its
	// deadline, so the degraded pair's leader waits in the queue and its
	// twin joins the flight instead of finding a cached report.
	java2 := entry("Java.2")
	blocked := make(chan *server.AnalyzeResponse, 1)
	go func() {
		resp, _ := c.Analyze(ctx, &server.AnalyzeRequest{Name: java2.Name, Grammar: java2.Source,
			Options: server.AnalyzeOptions{NoTimeout: true, DeadlineMS: 1500}})
		blocked <- resp
	}()
	for {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if metricValue(text, "cexd_in_flight") >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A one-byte arena budget degrades every figure1 conflict to a
	// memory-capped nonunifying example.
	fig1 := entry("figure1")
	req := &server.AnalyzeRequest{Name: fig1.Name, Grammar: fig1.Source,
		Options: server.AnalyzeOptions{NoTimeout: true, MaxArenaBytes: 1}}
	resps := make([]*server.AnalyzeResponse, 2)
	parallel(2, 2, func(i int) {
		resp, err := c.Analyze(ctx, req)
		if err != nil {
			t.Errorf("figure1 request %d: %v", i, err)
		}
		resps[i] = resp
	})
	blocker := <-blocked
	if blocker == nil || t.Failed() {
		t.Fatalf("blocker response %v", blocker)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(text, "cexd_singleflight_collapsed_total"); n != 1 {
		t.Fatalf("%d requests collapsed onto a flight, want the follower's 1", n)
	}
	per := resps[0].Degraded
	if per == 0 || resps[1].Degraded != per || resps[0].Cached || resps[1].Cached {
		t.Fatalf("pair degraded=%d/%d cached=%t/%t, want the same nonzero count, both uncached",
			resps[0].Degraded, resps[1].Degraded, resps[0].Cached, resps[1].Cached)
	}

	var rep chaosReport
	tally := chaosTally{rep: &rep}
	for _, resp := range resps {
		tally.record(fig1.Name, 1, resp, nil)
	}
	if rep.Outcomes.OK != 2 {
		t.Errorf("outcomes %+v, want 2 ok", rep.Outcomes)
	}
	got, err := degradedConflicts(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(blocker.Degraded + per); got != want {
		t.Errorf("degraded_conflicts = %d, want %d: the follower's shared report counted again", got, want)
	}
}
