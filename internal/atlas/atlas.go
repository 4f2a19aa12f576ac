// Package atlas turns the equilibrium checker into a discovery instrument:
// it hunts graph families for certified equilibria of the five deviation
// models under both objectives, canonicalizes hits up to isomorphism
// (internal/iso), and persists them — together with near-miss
// counterexamples and their violation witnesses — as a checked-in corpus
// under testdata/atlas/. The corpus is three things at once: a structure
// dataset validating the tree-equilibrium and budget/diameter predictions
// of the related literature (Nikoletseas et al., Ehsani et al.), a
// standing differential regression suite that pins every future checker
// change against hundreds of known-verdict instances (Verify re-certifies
// each entry through both the per-agent and shared-row paths and requires
// bit-identical verdicts, witnesses, and metadata), and a scenario pool
// the service load generator replays for wider coverage than the
// hardcoded path/star/torus mix.
package atlas

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/iso"
	"repro/internal/serve"
)

// Entry kinds.
const (
	// KindEquilibrium marks a certified stable position of its model ×
	// objective.
	KindEquilibrium = "equilibrium"
	// KindNearMiss marks a one-move perturbation of a certified
	// equilibrium that fails the same check; Witness records the violation.
	KindNearMiss = "near-miss"
)

// Entry is one corpus line: a graph, the check it was certified under
// (model, objective, side-condition selection), the verdict, and the
// derived structure metadata. Field order is the canonical JSONL rendering
// order — Verify re-marshals recomputed entries and compares bytes, so the
// stored lines pin verdicts, witnesses, and metadata bit-for-bit.
//
// The certification prefix — graph, check spec, verdict — is the
// service's persistent-store line (serve.StoreEntry), embedded so the two
// schemas stay in lockstep and a checked-in corpus parses directly as a
// verdict-store seed. Atlas entries use their own vocabulary inside it:
// ID is "eq-0001"/"nm-0001"-style, Kind is KindEquilibrium or
// KindNearMiss, Source records how the hunt found the graph
// ("family:star8", "trees-exhaustive:n6", "dynamics:best",
// "perturbed:eq-0004"), and Witness is set for near-misses only. The
// store-only Batched / BatchedRan bits are never set (the corpus records
// the per-agent verdict), so their omitempty tags keep the corpus
// rendering byte-identical to the pre-embedding layout.
type Entry struct {
	serve.StoreEntry
	// IsoKey is the graph's isomorphism-class key under the corpus
	// Deduper, fed entries in corpus order (see iso.Deduper).
	IsoKey string `json:"iso_key"`
	// Structure metadata, recomputed and re-pinned by Verify.
	N          int   `json:"n"`
	M          int   `json:"m"`
	Diameter   int   `json:"diameter"`
	MaxDegree  int   `json:"max_degree"`
	MinDegree  int   `json:"min_degree"`
	Tree       bool  `json:"tree"`
	SocialCost int64 `json:"social_cost"`
}

// Graph decodes the entry's graph.
func (e *Entry) Graph() (*graph.Graph, error) {
	return graphio.FromSparse6(e.Sparse6)
}

// objective maps the wire objective onto core's.
func (e *Entry) objective() (core.Objective, error) {
	switch e.Objective {
	case "sum":
		return core.Sum, nil
	case "max":
		return core.Max, nil
	default:
		return 0, fmt.Errorf("atlas: entry %s: unknown objective %q", e.ID, e.Objective)
	}
}

// CheckKey is the dedupe identity of a check: the isomorphism class plus
// everything that changes the predicate. Interest sets are label-sensitive
// (they name concrete vertices), so interests entries additionally fold in
// the labeled graph.
func (e *Entry) CheckKey() string {
	var sb strings.Builder
	sb.WriteString(e.IsoKey)
	name := e.Model.Name
	if name == "" {
		name = "swap"
	}
	fmt.Fprintf(&sb, "|%s|ec=%d|k=%d|%s|so=%v", name, e.Model.EdgeCost, e.Model.Budget, e.Objective, e.StableOnly)
	if len(e.Model.Interests) > 0 {
		fmt.Fprintf(&sb, "|%v|%s", e.Model.Interests, e.Sparse6)
	}
	return sb.String()
}

// Corpus is an ordered entry set plus the raw JSONL lines it was read from
// (empty for freshly hunted corpora), kept so Verify can compare
// re-rendered entries byte-for-byte against the checked-in file.
type Corpus struct {
	Entries []Entry
	// Raw holds the stored JSONL line of each entry when the corpus was
	// read from disk; len(Raw) == len(Entries) then, nil otherwise.
	Raw []string
}

// File names inside a corpus directory.
const (
	// JSONLFile is the metadata corpus: one Entry per line.
	JSONLFile = "atlas.jsonl"
	// S6File is the companion .s6 graph list (one sparse6 line per entry,
	// in order) for standard graph tools; Verify cross-checks it.
	S6File = "atlas.s6"
)

// header is written atop the JSONL corpus; readers skip '#' lines.
const header = `# Equilibrium atlas corpus — certified equilibria and near-miss
# counterexamples of the five deviation models (swap, greedy, interests,
# budget, 2nb) under sum/max objectives. One JSON entry per line; graphs in
# graphio sparse6. Regenerate with: bncg atlas hunt. Re-certify with:
# bncg atlas verify (every entry must re-verify bit-identically).`

// Write persists the corpus into dir (created if needed): the JSONL
// metadata file and the companion .s6 graph list.
func (c *Corpus) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var jl strings.Builder
	jl.WriteString(header)
	jl.WriteByte('\n')
	graphs := make([]*graph.Graph, 0, len(c.Entries))
	for i := range c.Entries {
		e := &c.Entries[i]
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		jl.Write(b)
		jl.WriteByte('\n')
		g, err := e.Graph()
		if err != nil {
			return fmt.Errorf("atlas: entry %s: %v", e.ID, err)
		}
		graphs = append(graphs, g)
	}
	if err := os.WriteFile(filepath.Join(dir, JSONLFile), []byte(jl.String()), 0o644); err != nil {
		return err
	}
	var s6 strings.Builder
	if err := graphio.WriteSparse6Lines(&s6, graphs); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, S6File), []byte(s6.String()), 0o644)
}

// Read loads the corpus from dir's JSONL file, keeping the raw line of
// every entry for byte-level verification.
func Read(dir string) (*Corpus, error) {
	f, err := os.Open(filepath.Join(dir, JSONLFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := &Corpus{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("atlas: %s line %d: %v", JSONLFile, lineNo, err)
		}
		c.Entries = append(c.Entries, e)
		c.Raw = append(c.Raw, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Certify runs the entry's check through both execution paths — the
// per-agent reference (core.CheckPerAgent) and the path core.Check picks,
// the shared-row pass for every model that has one — and requires
// identical verdicts and witnesses before returning the per-agent one; a
// divergence is exactly the class of regression the corpus exists to
// catch, so it is an error, not a pick.
func Certify(g *graph.Graph, model serve.ModelDTO, objective string, stableOnly bool, workers int) (core.Verdict, error) {
	m, err := model.Build(g.N())
	if err != nil {
		return core.Verdict{}, err
	}
	obj := core.Sum
	switch objective {
	case "sum":
	case "max":
		obj = core.Max
	default:
		return core.Verdict{}, fmt.Errorf("atlas: unknown objective %q", objective)
	}
	spec := core.CheckSpec{Model: m, Objective: obj, StableOnly: stableOnly, Workers: workers}
	plain, err := core.CheckPerAgent(g, spec)
	if err != nil {
		return core.Verdict{}, err
	}
	shared, err := core.Check(g, spec)
	if err != nil {
		return core.Verdict{}, err
	}
	if plain.Stable != shared.Stable || !sameViolation(plain.Violation, shared.Violation) {
		return core.Verdict{}, fmt.Errorf(
			"atlas: shared-row/per-agent divergence (model=%s obj=%s): per-agent stable=%v %v, shared-row stable=%v %v",
			model.Name, objective, plain.Stable, plain.Violation, shared.Stable, shared.Violation)
	}
	return plain, nil
}

func sameViolation(a, b *core.Violation) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// witnessDTO converts a core witness to the wire shape (nil-safe). It
// mirrors serve's unexported converter; the DTO type itself is shared.
func witnessDTO(v *core.Violation) *serve.ViolationDTO {
	if v == nil {
		return nil
	}
	d := &serve.ViolationDTO{
		Kind:    v.Kind.String(),
		Agent:   v.Agent,
		OldCost: v.OldCost,
		NewCost: v.NewCost,
	}
	if v.Kind == core.SwapImproves {
		m := serve.MoveDTO{V: v.Move.V, Drop: v.Move.Drop, Add: v.Move.Add}
		if v.Move.Kind != game.KindSwap {
			m.Kind = v.Move.Kind.String()
		}
		d.Move = &m
	} else {
		d.Edge = &[2]int{v.Edge.U, v.Edge.V}
	}
	return d
}

// describe fills an entry's derived fields from its graph and check
// outcome: sparse6, structure metadata, social cost under the model.
func describe(e *Entry, g *graph.Graph, workers int) error {
	s6, err := graphio.ToSparse6(g)
	if err != nil {
		return err
	}
	e.Sparse6 = s6
	e.N = g.N()
	e.M = g.M()
	diam, connected := g.Diameter()
	if !connected {
		diam = -1
	}
	e.Diameter = diam
	e.MaxDegree = g.MaxDegree()
	e.MinDegree = g.MinDegree()
	e.Tree = g.IsTree()
	m, err := e.Model.Build(g.N())
	if err != nil {
		return err
	}
	obj, err := e.objective()
	if err != nil {
		return err
	}
	e.SocialCost = m.New(g.Clone(), workers).SocialCost(obj)
	return nil
}

// AssignIsoKeys feeds every entry's graph through one Deduper in corpus
// order and stores the class keys. The order-dependence of colliding-class
// suffixes is why keys are (re)assigned corpus-wide rather than per entry.
func (c *Corpus) AssignIsoKeys() error {
	d := iso.NewDeduper()
	for i := range c.Entries {
		g, err := c.Entries[i].Graph()
		if err != nil {
			return fmt.Errorf("atlas: entry %s: %v", c.Entries[i].ID, err)
		}
		key, _ := d.Key(g)
		c.Entries[i].IsoKey = key
	}
	return nil
}
