package graphio

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/graph"
)

// ToSparse6 encodes g in the standard sparse6 format (":" prefix), which is
// far more compact than graph6 for the sparse graphs this library mostly
// handles (trees, tori, equilibria with m = O(n)).
func ToSparse6(g *graph.Graph) (string, error) {
	n := g.N()
	var sb strings.Builder
	sb.WriteByte(':')
	switch {
	case n <= 62:
		sb.WriteByte(byte(n + 63))
	case n <= 258047:
		sb.WriteByte(126)
		sb.WriteByte(byte((n>>12)&63) + 63)
		sb.WriteByte(byte((n>>6)&63) + 63)
		sb.WriteByte(byte(n&63) + 63)
	default:
		return "", fmt.Errorf("graphio: sparse6 n=%d too large", n)
	}
	k := bitsFor(n)

	var bitstream []bool
	writeBit := func(b bool) { bitstream = append(bitstream, b) }
	writeK := func(x int) {
		for i := k - 1; i >= 0; i-- {
			writeBit(x>>uint(i)&1 == 1)
		}
	}
	// Edges sorted by (max endpoint, min endpoint).
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].U < edges[j].U
	})
	cur := 0
	for _, e := range edges {
		u, v := e.U, e.V // u < v
		switch {
		case v == cur:
			writeBit(false)
			writeK(u)
		case v == cur+1:
			cur++
			writeBit(true)
			writeK(u)
		default:
			cur = v
			writeBit(true)
			writeK(v)
			writeBit(false)
			writeK(u)
		}
	}
	// Pad with 1-bits to a multiple of 6 (with the special n=2^k corner
	// case handled conservatively by padding a 0 first when needed).
	if k < 6 && n == (1<<uint(k)) && len(bitstream)%6 != 0 && cur < n-1 {
		writeBit(false)
	}
	for len(bitstream)%6 != 0 {
		writeBit(true)
	}
	for i := 0; i < len(bitstream); i += 6 {
		b := 0
		for t := 0; t < 6; t++ {
			b <<= 1
			if bitstream[i+t] {
				b |= 1
			}
		}
		sb.WriteByte(byte(b + 63))
	}
	return sb.String(), nil
}

// FromSparse6 decodes a sparse6 string produced by ToSparse6 (or standard
// tools).
func FromSparse6(s string) (*graph.Graph, error) {
	return FromSparse6Max(s, MaxN)
}

// FromSparse6Max is FromSparse6 with the vertex limit maxN, checked from
// the size header before anything is allocated.
func FromSparse6Max(s string, maxN int) (*graph.Graph, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != ':' {
		return nil, fmt.Errorf("graphio: sparse6 must start with ':'")
	}
	data := []byte(s[1:])
	n, pos, err := decodeSize(data, "sparse6")
	if err != nil {
		return nil, err
	}
	if err := checkN(n, maxN); err != nil {
		return nil, err
	}
	k := bitsFor(n)
	// Unpack the bitstream.
	var bitstream []bool
	for ; pos < len(data); pos++ {
		c := data[pos]
		if c < 63 || c > 126 {
			return nil, fmt.Errorf("graphio: invalid sparse6 byte %q", c)
		}
		v := c - 63
		for t := 5; t >= 0; t-- {
			bitstream = append(bitstream, v>>uint(t)&1 == 1)
		}
	}
	g := graph.New(n)
	cur := 0
	i := 0
	readK := func() (int, bool) {
		if i+k > len(bitstream) {
			return 0, false
		}
		x := 0
		for t := 0; t < k; t++ {
			x <<= 1
			if bitstream[i] {
				x |= 1
			}
			i++
		}
		return x, true
	}
	for i < len(bitstream) {
		b := bitstream[i]
		i++
		if b {
			cur++
		}
		x, ok := readK()
		if !ok {
			break // padding
		}
		if x >= n || cur >= n {
			break // padding reached
		}
		if x > cur {
			cur = x
		} else if x != cur {
			g.AddEdge(x, cur)
		}
		// x == cur with b set only moves the pointer (loop edges are
		// invalid in simple graphs and do not occur in our encoder).
	}
	return g, nil
}

// bitsFor returns ceil(log2(n)) with the sparse6 convention (>= 1).
func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
