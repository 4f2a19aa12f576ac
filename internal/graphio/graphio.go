// Package graphio serializes graphs: a plain edge-list text format, the
// standard graph6 compact encoding, and Graphviz DOT export. All readers
// validate input and round-trip with the writers.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/graph"
)

// WriteEdgeList writes g in the text format:
//
//	n m
//	u v        (one line per edge, sorted)
//
// Lines starting with '#' are comments on input and are never produced on
// output.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxN is the vertex limit of the plain decoders (ReadEdgeList,
// FromGraph6, FromSparse6, ReadInterests): the largest n the graph6 and
// sparse6 size headers can carry. The *Max variants take a tighter one.
const MaxN = 258047

// SizeError reports a size header that declares more vertices than the
// decoder's limit. Decoders return it before allocating anything for the
// graph, so a short hostile header cannot make them allocate Θ(n).
type SizeError struct {
	N   int // vertex count the header declares
	Max int // the decoder's limit
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("graphio: header declares n=%d, limit is %d", e.N, e.Max)
}

// checkN bounds a header's vertex count by maxN (and by MaxN).
func checkN(n, maxN int) error {
	if maxN > MaxN {
		maxN = MaxN
	}
	if n > maxN {
		return &SizeError{N: n, Max: maxN}
	}
	return nil
}

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// beginning with '#' are ignored. Headers declaring more than MaxN
// vertices are rejected with a *SizeError.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	return ReadEdgeListMax(r, MaxN)
}

// ReadEdgeListMax is ReadEdgeList with the vertex limit maxN: the header's
// n is checked before the graph is allocated.
func ReadEdgeListMax(r io.Reader, maxN int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var g *graph.Graph
	wantEdges := 0
	edges := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var a, b int
		if _, err := fmt.Sscanf(line, "%d %d", &a, &b); err != nil {
			return nil, fmt.Errorf("graphio: bad line %q: %v", line, err)
		}
		if g == nil {
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("graphio: bad header %q", line)
			}
			if err := checkN(a, maxN); err != nil {
				return nil, err
			}
			g = graph.New(a)
			wantEdges = b
			continue
		}
		if a < 0 || a >= g.N() || b < 0 || b >= g.N() || a == b {
			return nil, fmt.Errorf("graphio: invalid edge %d-%d for n=%d", a, b, g.N())
		}
		if !g.AddEdge(a, b) {
			return nil, fmt.Errorf("graphio: duplicate edge %d-%d", a, b)
		}
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graphio: empty input")
	}
	if edges != wantEdges {
		return nil, fmt.Errorf("graphio: header declares %d edges, found %d", wantEdges, edges)
	}
	return g, nil
}

// ToGraph6 encodes g in the standard graph6 format (ASCII, one line).
// Supported for 0 <= n <= 258047.
func ToGraph6(g *graph.Graph) (string, error) {
	n := g.N()
	var sb strings.Builder
	switch {
	case n <= 62:
		sb.WriteByte(byte(n + 63))
	case n <= 258047:
		sb.WriteByte(126)
		sb.WriteByte(byte((n>>12)&63) + 63)
		sb.WriteByte(byte((n>>6)&63) + 63)
		sb.WriteByte(byte(n&63) + 63)
	default:
		return "", fmt.Errorf("graphio: graph6 n=%d too large", n)
	}
	// Upper-triangle bits in column order: for j=1..n-1, i=0..j-1.
	var bits []bool
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			bits = append(bits, g.HasEdge(i, j))
		}
	}
	for len(bits)%6 != 0 {
		bits = append(bits, false)
	}
	for k := 0; k < len(bits); k += 6 {
		b := 0
		for t := 0; t < 6; t++ {
			b <<= 1
			if bits[k+t] {
				b |= 1
			}
		}
		sb.WriteByte(byte(b + 63))
	}
	return sb.String(), nil
}

// FromGraph6 decodes a graph6 string produced by ToGraph6 (or any standard
// graph6 tool) into a graph.
func FromGraph6(s string) (*graph.Graph, error) {
	return FromGraph6Max(s, MaxN)
}

// FromGraph6Max is FromGraph6 with the vertex limit maxN, checked from the
// size header before anything is allocated.
func FromGraph6Max(s string, maxN int) (*graph.Graph, error) {
	data := []byte(strings.TrimSpace(s))
	n, pos, err := decodeSize(data, "graph6")
	if err != nil {
		return nil, err
	}
	if err := checkN(n, maxN); err != nil {
		return nil, err
	}
	nbits := n * (n - 1) / 2
	need := (nbits + 5) / 6
	if len(data)-pos != need {
		return nil, fmt.Errorf("graphio: graph6 body has %d bytes, want %d", len(data)-pos, need)
	}
	g := graph.New(n)
	bit := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			byteIdx := pos + bit/6
			c := data[byteIdx]
			if c < 63 || c > 126 {
				return nil, fmt.Errorf("graphio: invalid graph6 byte %q", c)
			}
			if (c-63)>>(5-uint(bit%6))&1 == 1 {
				g.AddEdge(i, j)
			}
			bit++
		}
	}
	return g, nil
}

// decodeSize reads the vertex-count header shared by graph6 and sparse6
// (after sparse6's ':'): one byte for n <= 62, or 126 followed by three
// bytes for n <= 258047. It returns n and the length of the header. Every
// header byte must lie in 63..126; the 36-bit form for larger n (126 126
// followed by six bytes), which ToGraph6 and ToSparse6 never write, is
// rejected.
func decodeSize(data []byte, format string) (n, pos int, err error) {
	if len(data) == 0 {
		return 0, 0, fmt.Errorf("graphio: empty %s string", format)
	}
	if data[0] != 126 {
		if data[0] < 63 || data[0] > 126 {
			return 0, 0, fmt.Errorf("graphio: invalid %s header byte %q", format, data[0])
		}
		return int(data[0] - 63), 1, nil
	}
	if len(data) < 4 {
		return 0, 0, fmt.Errorf("graphio: truncated %s header", format)
	}
	if data[1] == 126 {
		return 0, 0, fmt.Errorf("graphio: %s size above 258047 is not supported", format)
	}
	for _, c := range data[1:4] {
		if c < 63 || c > 126 {
			return 0, 0, fmt.Errorf("graphio: invalid %s header byte %q", format, c)
		}
	}
	return int(data[1]-63)<<12 | int(data[2]-63)<<6 | int(data[3]-63), 4, nil
}

// WriteInterests writes per-vertex interest sets (the communication-
// interests game's input) in the text format:
//
//	n
//	v u1 u2 ...    (one line per vertex with a non-empty set, sorted)
//
// Lines starting with '#' are comments on input and are never produced on
// output.
func WriteInterests(w io.Writer, sets [][]int32) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d\n", len(sets)); err != nil {
		return err
	}
	for v, set := range sets {
		if len(set) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d", v); err != nil {
			return err
		}
		sorted := append([]int32(nil), set...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, u := range sorted {
			if _, err := fmt.Fprintf(bw, " %d", u); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadInterests parses the WriteInterests format: a vertex-count header,
// then one line per vertex listing its interest targets. Vertices without
// a line get an empty set; repeated lines for a vertex merge. Blank lines
// and lines beginning with '#' are ignored. Targets are validated against
// the header's vertex count; self-interest and duplicates are tolerated
// (the game layer normalizes them away).
func ReadInterests(r io.Reader) ([][]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var sets [][]int32
	n := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if n < 0 {
			if len(fields) != 1 {
				return nil, fmt.Errorf("graphio: bad interests header %q", line)
			}
			if _, err := fmt.Sscanf(fields[0], "%d", &n); err != nil || n < 0 {
				return nil, fmt.Errorf("graphio: bad interests header %q", line)
			}
			if err := checkN(n, MaxN); err != nil {
				return nil, err
			}
			sets = make([][]int32, n)
			continue
		}
		var v int
		if _, err := fmt.Sscanf(fields[0], "%d", &v); err != nil {
			return nil, fmt.Errorf("graphio: bad interests line %q: %v", line, err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graphio: interests vertex %d out of range for n=%d", v, n)
		}
		for _, f := range fields[1:] {
			var u int
			if _, err := fmt.Sscanf(f, "%d", &u); err != nil {
				return nil, fmt.Errorf("graphio: bad interests line %q: %v", line, err)
			}
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graphio: interest target %d out of range for n=%d", u, n)
			}
			sets[v] = append(sets[v], int32(u))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graphio: empty interests input")
	}
	return sets, nil
}

// ToDOT renders g as an undirected Graphviz graph. labels may be nil; when
// provided it supplies display names per vertex.
func ToDOT(g *graph.Graph, name string, labels map[int]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", name)
	if labels != nil {
		keys := make([]int, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %d [label=%q];\n", k, labels[k])
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d;\n", e.U, e.V)
	}
	sb.WriteString("}\n")
	return sb.String()
}
