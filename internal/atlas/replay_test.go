package atlas

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/iso"
)

// corpusDir is the checked-in corpus every replay test runs against.
const corpusDir = "../../testdata/atlas"

func readCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Read(corpusDir)
	if err != nil {
		t.Fatalf("read corpus: %v (regenerate with: bncg atlas hunt)", err)
	}
	if len(c.Entries) == 0 {
		t.Fatal("corpus is empty")
	}
	return c
}

// TestCorpusReplay is the standing differential regression suite: every
// checked-in corpus entry is re-certified through both the per-agent and
// shared-row checker paths for its stored model × objective × side-condition
// combination, and the recomputed entry — verdict, witness, structure
// metadata, iso key — must re-marshal byte-identically to the stored JSONL
// line. A checker change that shifts any verdict, witness tie-break, cost,
// or derived field on any of the hundreds of known-verdict instances fails
// here by entry ID. Runs in CI including under -race.
func TestCorpusReplay(t *testing.T) {
	c := readCorpus(t)
	// The corpus-order Deduper makes iso keys order-dependent, so the
	// table drives a flat loop (not subtests); failures name the entry.
	dedup := iso.NewDeduper()
	for i := range c.Entries {
		if err := VerifyEntry(c.Entries[i], c.Raw[i], dedup, 0); err != nil {
			t.Errorf("replay: %v", err)
		}
	}
}

// TestCorpusReplayWorkerCounts re-runs a deterministic sample of entries
// under explicit worker counts; verdicts and witnesses must not depend on
// parallelism (the engine's determinism contract at atlas scale).
func TestCorpusReplayWorkerCounts(t *testing.T) {
	c := readCorpus(t)
	for i := 0; i < len(c.Entries); i += 17 {
		e := c.Entries[i]
		g, err := e.Graph()
		if err != nil {
			t.Fatalf("entry %s: %v", e.ID, err)
		}
		want, err := json.Marshal(e.Witness)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			v, err := Certify(g, e.Model, e.Objective, e.StableOnly, workers)
			if err != nil {
				t.Fatalf("entry %s workers=%d: %v", e.ID, workers, err)
			}
			if v.Stable != e.Stable {
				t.Errorf("entry %s workers=%d: stable=%v, corpus says %v", e.ID, workers, v.Stable, e.Stable)
			}
			got, err := json.Marshal(witnessDTO(v.Violation))
			if err != nil {
				t.Fatal(err)
			}
			if e.Kind == KindNearMiss && string(got) != string(want) {
				t.Errorf("entry %s workers=%d: witness %s, corpus says %s", e.ID, workers, got, want)
			}
		}
	}
}

// TestCorpusFloor pins the acceptance floor the corpus must keep: at least
// 100 certified equilibria spanning all five models and both objectives,
// and at least 10 near-misses each carrying a violation witness.
func TestCorpusFloor(t *testing.T) {
	c := readCorpus(t)
	s := Summarize(c)
	if s.Equilibria < 100 {
		t.Errorf("corpus has %d certified equilibria, want >= 100", s.Equilibria)
	}
	if s.NearMisses < 10 {
		t.Errorf("corpus has %d near-misses, want >= 10", s.NearMisses)
	}
	for _, model := range []string{"swap", "greedy", "interests", "budget", "2nb"} {
		if s.Models[model] == 0 {
			t.Errorf("corpus has no %s-model entries", model)
		}
	}
	for _, obj := range []string{"sum", "max"} {
		if s.Objectives[obj] == 0 {
			t.Errorf("corpus has no %s-objective entries", obj)
		}
	}
	for i := range c.Entries {
		e := &c.Entries[i]
		switch e.Kind {
		case KindNearMiss:
			if e.Witness == nil {
				t.Errorf("near-miss %s has no witness", e.ID)
			}
			if e.Stable {
				t.Errorf("near-miss %s stored as stable", e.ID)
			}
		case KindEquilibrium:
			if e.Witness != nil {
				t.Errorf("equilibrium %s carries a witness", e.ID)
			}
			if !e.Stable {
				t.Errorf("equilibrium %s stored as unstable", e.ID)
			}
		default:
			t.Errorf("entry %s has unknown kind %q", e.ID, e.Kind)
		}
	}
}

// TestVerifyWholeCorpus runs the full directory-level Verify (s6
// cross-check, dedupe keys, byte-identity) — the same gate `bncg atlas
// verify` and the CI atlas-smoke step exercise.
func TestVerifyWholeCorpus(t *testing.T) {
	if _, err := Verify(corpusDir, 0); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCorpusStatsRender pins that the structure tables render from the
// checked-in corpus: per-model envelope, budget/diameter trade-off, and
// Conjecture-14 evidence.
func TestCorpusStatsRender(t *testing.T) {
	c := readCorpus(t)
	tables, err := StatsTables(c, 0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	for _, tab := range tables {
		if tab.String() == "" {
			t.Error("empty table rendering")
		}
	}
}

// TestReplayDetectsDrift proves the replay harness bites: a tampered
// stored line (metadata drift) and a flipped kind must both be rejected.
func TestReplayDetectsDrift(t *testing.T) {
	c := readCorpus(t)
	e := c.Entries[0]
	raw := c.Raw[0]
	tampered := strings.Replace(raw,
		`"social_cost":`+strconv.FormatInt(e.SocialCost, 10),
		`"social_cost":`+strconv.FormatInt(e.SocialCost+1, 10), 1)
	if tampered == raw {
		t.Fatal("tamper replacement did not apply")
	}
	if err := VerifyEntry(e, tampered, iso.NewDeduper(), 0); err == nil {
		t.Error("VerifyEntry accepted a tampered social_cost")
	}
	flipped := e
	flipped.Kind = KindNearMiss // entry 0 certifies stable → kind mismatch
	if err := VerifyEntry(flipped, raw, iso.NewDeduper(), 0); err == nil {
		t.Error("VerifyEntry accepted a flipped kind")
	}
}
