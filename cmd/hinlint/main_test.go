package main

import (
	"encoding/json"
	"go/token"
	"testing"

	"github.com/hinpriv/dehin/internal/lint"
)

// TestRenderJSON pins the hand-rolled emitter's schema: ordered fields,
// proper escaping, decodable output, and "[]" for no findings.
func TestRenderJSON(t *testing.T) {
	if got := renderJSON(nil, "/w"); got != "[]\n" {
		t.Fatalf("empty render = %q, want %q", got, "[]\n")
	}

	diags := []lint.Diagnostic{
		{
			Pos:     token.Position{Filename: "/w/a/b.go", Line: 3, Column: 7},
			Check:   "nilsafe",
			Message: `method "X" dereferences receiver`,
		},
		{
			Pos:     token.Position{Filename: "/elsewhere/c.go", Line: 1, Column: 1},
			Check:   "determinism",
			Message: "time.Now reads the wall clock",
		},
	}
	var decoded []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(renderJSON(diags, "/w")), &decoded); err != nil {
		t.Fatalf("output does not decode: %v", err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d diagnostics, want 2", len(decoded))
	}
	if decoded[0].File != "a/b.go" {
		t.Errorf("path under cwd not relativized: %q", decoded[0].File)
	}
	if decoded[1].File != "/elsewhere/c.go" {
		t.Errorf("path outside cwd rewritten: %q", decoded[1].File)
	}
	if decoded[0].Line != 3 || decoded[0].Col != 7 || decoded[0].Check != "nilsafe" {
		t.Errorf("fields mangled: %+v", decoded[0])
	}
	if decoded[0].Message != `method "X" dereferences receiver` {
		t.Errorf("quote escaping broken: %q", decoded[0].Message)
	}
}

// TestRenderSARIF checks the 2.1.0 log against what the code-scanning
// ingester needs: schema/version headers, the analyzer catalogue as
// rules, error-level results with file:line regions, and a present (not
// null) results array on a clean run.
func TestRenderSARIF(t *testing.T) {
	diags := []lint.Diagnostic{
		{
			Pos:     token.Position{Filename: "/w/a/b.go", Line: 3, Column: 7},
			Check:   "errdrop",
			Message: `call "f.Sync" discards its error`,
		},
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(renderSARIF(diags, "/w")), &log); err != nil {
		t.Fatalf("output does not decode: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Errorf("bad header: version %q schema %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "hinlint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !ruleIDs[a.Name] {
			t.Errorf("analyzer %q missing from rules", a.Name)
		}
	}
	if !ruleIDs["directive"] {
		t.Error("directive rule missing")
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "errdrop" || res.Level != "error" {
		t.Errorf("result header mangled: %+v", res)
	}
	if res.Message.Text != `call "f.Sync" discards its error` {
		t.Errorf("message mangled: %q", res.Message.Text)
	}
	if len(res.Locations) != 1 {
		t.Fatalf("got %d locations, want 1", len(res.Locations))
	}
	phys := res.Locations[0].PhysicalLocation
	if phys.ArtifactLocation.URI != "a/b.go" {
		t.Errorf("path under cwd not relativized: %q", phys.ArtifactLocation.URI)
	}
	if phys.Region.StartLine != 3 || phys.Region.StartColumn != 7 {
		t.Errorf("region mangled: %+v", phys.Region)
	}

	// A clean tree uploads an empty-but-present results array.
	var raw map[string]any
	if err := json.Unmarshal([]byte(renderSARIF(nil, "/w")), &raw); err != nil {
		t.Fatal(err)
	}
	runs := raw["runs"].([]any)
	if results, ok := runs[0].(map[string]any)["results"].([]any); !ok {
		t.Error("clean run must carry a results array, not null")
	} else if len(results) != 0 {
		t.Errorf("clean run has %d results", len(results))
	}
}
