package graphio

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 1+rng.Intn(20), rng.Float64())
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("ReadEdgeList: %v\ninput:\n%s", err, sb.String())
		}
		if !back.Equal(g) {
			t.Fatalf("round trip mismatch (n=%d m=%d)", g.N(), g.M())
		}
	}
}

func TestReadEdgeListCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n4 2\n0 1\n\n# another\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Errorf("parsed wrong graph: %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x y\n",
		"self loop":    "3 1\n1 1\n",
		"out of range": "3 1\n0 5\n",
		"duplicate":    "3 2\n0 1\n1 0\n",
		"edge count":   "3 2\n0 1\n",
		"bad line":     "3 1\nzero one\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

func TestGraph6KnownValues(t *testing.T) {
	// K3 in graph6 is "Bw"; the empty graph on 0 vertices is "?".
	k3 := graph.New(3)
	k3.AddEdge(0, 1)
	k3.AddEdge(0, 2)
	k3.AddEdge(1, 2)
	s, err := ToGraph6(k3)
	if err != nil {
		t.Fatal(err)
	}
	if s != "Bw" {
		t.Errorf("graph6(K3) = %q, want \"Bw\"", s)
	}
	empty, err := ToGraph6(graph.New(0))
	if err != nil || empty != "?" {
		t.Errorf("graph6(empty) = %q, want \"?\"", empty)
	}
	// P4 (path 0-1-2-3) is "Ch" per the nauty format description.
	p4 := graph.New(4)
	p4.AddEdge(0, 1)
	p4.AddEdge(1, 2)
	p4.AddEdge(2, 3)
	s, err = ToGraph6(p4)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromGraph6(s)
	if err != nil || !back.Equal(p4) {
		t.Errorf("P4 round trip failed: %q err=%v", s, err)
	}
}

func TestGraph6RoundTripQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 70) // exercise both header forms
		g := randomGraph(rng, n, float64(pRaw)/255)
		s, err := ToGraph6(g)
		if err != nil {
			return false
		}
		back, err := FromGraph6(s)
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGraph6LargeHeader(t *testing.T) {
	g := graph.New(100) // forces the 126-prefixed header
	g.AddEdge(0, 99)
	s, err := ToGraph6(g)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 126 {
		t.Errorf("large graph did not use extended header: %q", s[:4])
	}
	back, err := FromGraph6(s)
	if err != nil || !back.Equal(g) {
		t.Error("large graph round trip failed")
	}
}

func TestFromGraph6Errors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":     "",
		"truncated": "D",    // n=5 needs body bytes
		"long":      "Bwww", // too many body bytes
		"bad byte":  "B\x01\x01",
	} {
		if _, err := FromGraph6(in); err == nil {
			t.Errorf("%s: FromGraph6(%q) accepted bad input", name, in)
		}
	}
}

// TestHostileSizeHeaders feeds size headers the encoders never write:
// each must be rejected with an error, not a panic or a huge graph.
func TestHostileSizeHeaders(t *testing.T) {
	for _, c := range []struct {
		name string
		in   string
	}{
		{"graph6 blank", " "},
		{"graph6 byte below 63", ">"},
		{"graph6 byte above 126", "\x7f"},
		{"graph6 long form truncated", "~??"},
		{"graph6 long form byte below 63", "~?\x01?"},
		{"graph6 36-bit form", "~~~~~~~~"},
		{"sparse6 byte below 63", ":>"},
		{"sparse6 blank after colon", ": A"},
		{"sparse6 long form byte below 63", ":~\x01??"},
		{"sparse6 36-bit form", ":~~~~"},
		{"sparse6 36-bit form full", ":~~??????"},
	} {
		decode := FromGraph6
		if strings.HasPrefix(c.in, ":") {
			decode = FromSparse6
		}
		if g, err := decode(c.in); err == nil {
			t.Errorf("%s: %q decoded to n=%d, want an error", c.name, c.in, g.N())
		}
	}
}

func TestToDOT(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	dot := ToDOT(g, "demo", map[int]string{0: "a", 1: "b", 2: "c"})
	for _, want := range []string{"graph \"demo\"", "0 -- 1;", "1 -- 2;", "[label=\"a\"]"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	plain := ToDOT(g, "plain", nil)
	if strings.Contains(plain, "label") {
		t.Error("nil labels still produced label attributes")
	}
}

func TestInterestsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(20)
		sets := make([][]int32, n)
		for v := range sets {
			for u := 0; u < n; u++ {
				if u != v && rng.Float64() < 0.3 {
					sets[v] = append(sets[v], int32(u))
				}
			}
		}
		var sb strings.Builder
		if err := WriteInterests(&sb, sets); err != nil {
			t.Fatal(err)
		}
		got, err := ReadInterests(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("trial %d: %v\ninput:\n%s", trial, err, sb.String())
		}
		if len(got) != n {
			t.Fatalf("trial %d: round-trip n=%d, want %d", trial, len(got), n)
		}
		for v := range sets {
			if len(got[v]) != len(sets[v]) {
				t.Fatalf("trial %d vertex %d: %v, want %v", trial, v, got[v], sets[v])
			}
			for i := range sets[v] {
				if got[v][i] != sets[v][i] {
					t.Fatalf("trial %d vertex %d: %v, want %v", trial, v, got[v], sets[v])
				}
			}
		}
	}
}

func TestReadInterestsMergesAndComments(t *testing.T) {
	in := "# communication interests\n4\n\n0 1 2\n0 3\n2 0\n"
	sets, err := ReadInterests(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 4 {
		t.Fatalf("n = %d, want 4", len(sets))
	}
	if got := sets[0]; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("merged set of 0 = %v, want [1 2 3]", got)
	}
	if len(sets[1]) != 0 || len(sets[3]) != 0 {
		t.Fatal("unlisted vertices should have empty sets")
	}
}

func TestReadInterestsErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"bad header":   "x\n",
		"two headers":  "3 4\n",
		"vertex range": "3\n5 1\n",
		"target range": "3\n1 7\n",
		"negative":     "3\n1 -2\n",
	} {
		if _, err := ReadInterests(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadInterests(%q) accepted bad input", name, in)
		}
	}
}
