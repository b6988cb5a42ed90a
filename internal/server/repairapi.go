package server

import (
	"fmt"

	"lrcex/internal/repair"
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
