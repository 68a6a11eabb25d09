package dehin

import (
	"strings"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

func TestExplainMatchAccepted(t *testing.T) {
	aux := buildAux(t)
	target := buildTarget(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	// Ada (entity 0 in aux) is a real candidate for A3H (target 0).
	ex := a.ExplainMatch(target, 0, 0)
	if !ex.Complete {
		t.Fatalf("Ada should explain A3H completely: %+v", ex)
	}
	// Two neighbor slots: mention->F8P and follow->M7R.
	if len(ex.Pairings) != 2 || len(ex.Unmatched) != 0 {
		t.Fatalf("pairings=%d unmatched=%d", len(ex.Pairings), len(ex.Unmatched))
	}
	out := ex.Render(target, aux)
	for _, want := range []string{"A3H", "Ada", "complete=true", "mention(5)", "Cyn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainMatchRejected(t *testing.T) {
	aux := buildAux(t)
	target := buildTarget(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1})
	// Bob (entity 1) mentions only Dan; A3H's mention of F8P-like Cyn
	// cannot be explained.
	ex := a.ExplainMatch(target, 0, 1)
	if ex.Complete {
		t.Fatal("Bob should not explain A3H")
	}
	if len(ex.Unmatched) == 0 {
		t.Fatal("expected unmatched slots")
	}
	out := ex.Render(target, aux)
	if !strings.Contains(out, "UNMATCHED") {
		t.Fatalf("render missing UNMATCHED:\n%s", out)
	}
}

// TestExplainMatchAgreesWithBoolean checks that the explanation an analyst
// reviews never contradicts the attack: for every profile candidate of
// every community target, Complete equals whether Deanonymize keeps the
// candidate, across distance 0, in-links, tolerance and distance 2.
func TestExplainMatchAgreesWithBoolean(t *testing.T) {
	cfg := tqq.DefaultConfig(1000, 81)
	cfg.Communities = []tqq.CommunitySpec{{Size: 120, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tgt, _, err := d.Graph.Induced(d.Communities[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{
		{MaxDistance: 0},
		{MaxDistance: 2, UseInEdges: true},
		{MaxDistance: 1, NeighborTolerance: 0.5},
		{MaxDistance: 2},
	} {
		a := newTQQAttack(t, d.Graph, c)
		candidates, rejected, forgiven := 0, 0, 0
		for tv := 0; tv < tgt.NumEntities(); tv++ {
			accepted := make(map[hin.EntityID]bool)
			for _, av := range a.Deanonymize(tgt, hin.EntityID(tv)) {
				accepted[av] = true
			}
			for _, rc := range a.DeanonymizeRanked(tgt, hin.EntityID(tv)) {
				ex := a.ExplainMatch(tgt, hin.EntityID(tv), rc.Entity)
				if accepted[rc.Entity] != ex.Complete {
					t.Fatalf("%+v: target %d candidate %d: boolean %v vs explanation %v",
						c, tv, rc.Entity, accepted[rc.Entity], ex.Complete)
				}
				if c.MaxDistance == 0 && len(ex.Pairings)+len(ex.Unmatched) != 0 {
					t.Fatalf("%+v: distance 0 explained neighbor slots: %+v", c, ex)
				}
				for _, p := range append(ex.Pairings, ex.Unmatched...) {
					if p.In && !c.UseInEdges {
						t.Fatalf("%+v: in-link slot without UseInEdges: %+v", c, p)
					}
				}
				candidates++
				if !ex.Complete {
					rejected++
				} else if len(ex.Unmatched) > 0 {
					forgiven++
				}
			}
		}
		if candidates == 0 || c.MaxDistance > 0 && rejected == 0 {
			t.Fatalf("%+v: degenerate coverage: %d candidates, %d rejected", c, candidates, rejected)
		}
		if c.NeighborTolerance > 0 && forgiven == 0 {
			t.Fatalf("%+v: no accepted candidate lists a forgiven slot", c)
		}
	}
}

// TestExplainMatchInLinks checks that an attack matching in-links explains
// them: the pairings carry the direction and Render marks them.
func TestExplainMatchInLinks(t *testing.T) {
	aux := buildAux(t)
	target := buildTarget(t)
	a := newTQQAttack(t, aux, Config{MaxDistance: 1, UseInEdges: true})
	// Dan (aux 3) is M7R (target 2): A3H follows M7R, Ada follows Dan.
	ex := a.ExplainMatch(target, 2, 3)
	if !ex.Complete {
		t.Fatalf("Dan should explain M7R: %+v", ex)
	}
	in := 0
	for _, p := range ex.Pairings {
		if p.In {
			in++
		}
	}
	if in == 0 {
		t.Fatalf("no in-link pairing: %+v", ex)
	}
	if out := ex.Render(target, aux); !strings.Contains(out, `<-follow(1): "A3H"`) {
		t.Fatalf("render does not mark the in-link:\n%s", out)
	}
}
